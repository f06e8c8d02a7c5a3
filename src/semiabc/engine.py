"""Prior sampling, batch simulation, rejection ABC, and adjustments.

Reproducibility contract: every random value consumed for draw m is taken
from a counter-based (Philox) stream keyed only by the batch seed, a fixed
purpose tag, and m's fixed-size chunk. Identical (seed, draw index) give
identical output for any batch size and any `worker_pool` (one per run;
no task on it submits to it); the suite asserts byte equality at 1 vs 8 threads.

Thetas are exact inversion draws of the (truncated) prior, one uniform
matrix per chunk from the stream keyed (seed, 0, chunk, 0).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import as_matrix, as_vector
from .regression import fit_linear

# Draws are simulated in fixed-size chunks; each chunk has its own RNG
# streams. The constant is part of the reproducibility contract: changing
# it changes every batch.
CHUNK = 4096

# Stream purpose tags (second element of the SeedSequence key).
_TAG_PRIOR = 0
_TAG_SIM = 1

# simulate_batch refuses a truncation box with less prior mass than this.
MIN_TRUNCATION_MASS = 1e-4

# compute_scales refuses a batch of fewer draws than this.
MIN_SCALE_DRAWS = 10

PRIOR_KINDS = ("uniform", "normal", "lognormal")


def _generator(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def worker_pool(threads: int):
    """A context manager giving a pool of `threads` worker threads, joined
    on exit, or None (serial) at 1. The name ThreadPoolExecutor is looked
    up at call time, so a tracer that swaps it sees every pool."""
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    return ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext()


def derive_seed(seed: int, *tags: int) -> int:
    """A child seed that is a pure function of (seed, tags)."""
    ss = np.random.SeedSequence((int(seed), *map(int, tags)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class TruncationRegion:
    """Axis-aligned box of per-coordinate [lo, hi] intervals."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo, "lo")
        hi = as_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same length")
        if np.any(lo > hi):
            raise ValueError("truncation region has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def to_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @staticmethod
    def from_dict(data: dict) -> "TruncationRegion":
        return TruncationRegion(
            lo=np.asarray(data["lo"], dtype=np.float64),
            hi=np.asarray(data["hi"], dtype=np.float64),
        )


# Wichura's AS 241 (PPND16, Appl. Statist. 37:477, 1988) rational
# approximations to the normal quantile, highest power first: the central
# branch in r = 0.180625 - q^2, then the tails in r = sqrt(-log(min(p, 1-p)))
# shifted by 1.6 (r <= 5) or by 5 (beyond).
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
     5.4637849111641143699e0, 6.6579046435011037772e0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _rational(coefs, r: np.ndarray) -> np.ndarray:
    num_c, den_c = coefs
    num = r * num_c[0] + num_c[1]
    den = r * den_c[0] + den_c[1]
    for a, b in zip(num_c[2:], den_c[2:]):
        num *= r
        num += a
        den *= r
        den += b
    num /= den
    return num


def ndtri(p) -> np.ndarray:
    """Standard normal quantile by AS 241 on p in the open interval (0, 1).

    Agrees with `statistics.NormalDist().inv_cdf` to 2 ulp, which runs the
    same algorithm in scalar C.
    """
    p = np.asarray(p, dtype=np.float64)
    shape = p.shape
    p = p.reshape(-1)
    q = p - 0.5
    x = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.abs(q) > 0.425
    if np.any(tail):
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, p[tail], 1.0 - p[tail])))
        far = r > 5.0
        z = np.where(far, _rational(_AS241_FAR, r - 5.0), _rational(_AS241_NEAR, r - 1.6))
        x[tail] = np.copysign(z, qt)
    return x.reshape(shape)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, 0.5 * erfc(-x / sqrt(2)), elementwise."""
    z = np.asarray(x, dtype=np.float64) * -math.sqrt(0.5)
    return 0.5 * np.asarray(_erfc(z), dtype=np.float64)


@dataclass(frozen=True)
class MarginalPrior:
    """One coordinate's prior: uniform(lo, hi), normal(mean, sd), or
    lognormal(mu, sigma) of the underlying normal."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ConfigError(f"unknown prior kind {self.kind!r}")
        if self.kind == "uniform" and not self.a < self.b:
            raise ConfigError(f"uniform prior needs lo < hi, got [{self.a}, {self.b}]")
        if self.kind in ("normal", "lognormal") and not self.b > 0:
            raise ConfigError(f"{self.kind} prior needs positive scale, got {self.b}")

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.clip(u, 1e-300, 1.0 - 1e-16)
        if self.kind == "uniform":
            return self.a + u * (self.b - self.a)
        z = ndtri(u)
        if self.kind == "normal":
            return self.a + self.b * z
        return np.exp(self.a + self.b * z)

    def cdf(self, x: float) -> float:
        """Prior CDF at one scalar point, such as a truncation box edge."""
        if self.kind == "uniform":
            return min(max((x - self.a) / (self.b - self.a), 0.0), 1.0)
        if self.kind == "normal":
            return float(ndtr((x - self.a) / self.b))
        # a box a caller passes in can reach below the lognormal support
        return float(ndtr((math.log(x) - self.a) / self.b)) if x > 0 else 0.0


def uniform(lo: float, hi: float) -> MarginalPrior:
    return MarginalPrior("uniform", float(lo), float(hi))


def normal(mean: float, sd: float) -> MarginalPrior:
    return MarginalPrior("normal", float(mean), float(sd))


def lognormal(mu: float, sigma: float) -> MarginalPrior:
    return MarginalPrior("lognormal", float(mu), float(sigma))


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-coordinate prior, optionally truncated to a box."""

    marginals: tuple[MarginalPrior, ...]
    truncation_box: TruncationRegion | None = None

    def __post_init__(self):
        if not self.marginals:
            raise ConfigError("prior needs at least one coordinate")
        box = self.truncation_box
        if box is not None:
            if box.dim != len(self.marginals):
                raise ConfigError("truncation box dimension mismatch")
            if not np.all(box.lo < box.hi):
                raise ConfigError("truncation box must have positive volume")

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def _cdf_bounds(self) -> list[tuple[float, float]]:
        """Per-coordinate prior CDF at the box edges; (0, 1) without a box."""
        box = self.truncation_box
        if box is None:
            return [(0.0, 1.0)] * self.dim
        return [(m.cdf(lo), m.cdf(hi)) for m, lo, hi in zip(self.marginals, box.lo, box.hi)]

    def mass(self) -> float:
        """Prior probability of the truncation box (1.0 without a box)."""
        return math.prod(f_hi - f_lo for f_lo, f_hi in self._cdf_bounds())

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map an (n, p) uniform matrix to prior draws by inversion; without
        a box this is the plain inverse CDF bit for bit (0.0 + u * 1.0 == u)."""
        out = np.empty_like(u)
        for i, (marg, (f_lo, f_hi)) in enumerate(zip(self.marginals, self._cdf_bounds())):
            out[:, i] = marg.ppf(f_lo + u[:, i] * (f_hi - f_lo))
        box = self.truncation_box
        if box is not None:
            # absorb ppf rounding at the edges
            np.clip(out, box.lo, box.hi, out=out)
        return out

    def truncated(self, box: TruncationRegion) -> "PriorSpec":
        return PriorSpec(marginals=self.marginals, truncation_box=box)

    def to_dict(self) -> dict:
        d = {
            "marginals": [
                {"kind": m.kind, "a": m.a, "b": m.b} for m in self.marginals
            ]
        }
        if self.truncation_box is not None:
            d["truncation_box"] = self.truncation_box.to_dict()
        return d

    def spec_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class SimulatorContract:
    """Deterministic vectorized simulator.

    `simulate(thetas, rng)` maps an (n, p) parameter block plus a dedicated
    Generator to an (n, d) statistic block. To honor the reproducibility
    contract the simulator must consume randomness only through vectorized
    row-major draws sized by the number of input rows (the engine always
    presents full fixed-size chunks, so multiple draw calls are fine).
    """

    name: str
    param_dim: int
    stat_dim: int
    simulate: Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class SimulationBatch:
    """M paired (theta, s) draws plus the provenance that produced them."""

    thetas: np.ndarray  # (M, p)
    stats: np.ndarray  # (M, d)
    seed: int
    model_name: str
    prior_hash: str

    def __post_init__(self):
        t = as_matrix(self.thetas, "thetas")
        s = as_matrix(self.stats, "stats")
        if t.shape[0] != s.shape[0]:
            raise ValueError("thetas and stats row counts differ")
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "stats", s)

    @property
    def m(self) -> int:
        return self.thetas.shape[0]

    @property
    def param_dim(self) -> int:
        return self.thetas.shape[1]

    @property
    def stat_dim(self) -> int:
        return self.stats.shape[1]


@dataclass(frozen=True)
class WeightedPosterior:
    """Accepted parameter draws, equally weighted, with acceptance info."""

    thetas: np.ndarray  # (N, p)
    epsilon: float  # largest accepted distance
    accepted_indices: np.ndarray  # (N,) indices into the source batch
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        t = as_matrix(self.thetas, "thetas")
        if t.shape[0] < 1:
            raise ValueError("posterior needs at least one draw")
        if (shape := np.shape(self.accepted_indices)) != t.shape[:1]:
            raise ValueError(f"'accepted_indices' has shape {shape}, expected {t.shape[:1]}")
        object.__setattr__(self, "thetas", t)

    @property
    def n(self) -> int:
        return self.thetas.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The weight 1/n of each draw."""
        return np.full(self.n, 1.0 / self.n)


def _sample_thetas_chunk(prior: PriorSpec, seed: int, chunk_index: int) -> np.ndarray:
    """Draw one full chunk of thetas from one uniform matrix."""
    # the key, trailing 0 included, is part of the reproducibility contract
    rng = _generator(seed, _TAG_PRIOR, chunk_index, 0)
    return prior.sample(rng.random((CHUNK, prior.dim)))


def _simulate_chunk(
    prior: PriorSpec, sim: SimulatorContract, seed: int, chunk_index: int, n_keep: int
) -> tuple[np.ndarray, np.ndarray]:
    thetas = _sample_thetas_chunk(prior, seed, chunk_index)
    rng = _generator(seed, _TAG_SIM, chunk_index)
    stats = np.asarray(sim.simulate(thetas, rng), dtype=np.float64)
    if stats.shape != (CHUNK, sim.stat_dim):
        raise NumericalError(
            f"simulator {sim.name!r} returned shape {stats.shape}, "
            f"expected {(CHUNK, sim.stat_dim)}"
        )
    thetas, stats = thetas[:n_keep], stats[:n_keep]
    if not (np.isfinite(thetas).all() and np.isfinite(stats).all()):
        raise NumericalError(f"simulator {sim.name!r} produced non-finite values")
    return thetas, stats


def simulate_batch(
    prior: PriorSpec,
    sim: SimulatorContract,
    m: int,
    seed: int,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> SimulationBatch:
    """Simulate M paired (theta, s) draws from p(s|theta) p(theta).

    Output is a pure function of (prior, sim, m, seed); `pool` only
    distributes chunks across workers and never changes any value.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if sim.param_dim != prior.dim:
        raise ValueError(
            f"simulator expects {sim.param_dim} parameters, prior has {prior.dim}"
        )
    mass = prior.mass()
    if mass < MIN_TRUNCATION_MASS:
        raise NumericalError(
            f"truncation region too small for prior "
            f"(prior mass {mass:.2e} < {MIN_TRUNCATION_MASS:.0e})"
        )

    thetas = np.empty((m, prior.dim))
    stats = np.empty((m, sim.stat_dim))

    def run(start: int):
        n_keep = min(CHUNK, m - start)
        t, s = _simulate_chunk(prior, sim, seed, start // CHUNK, n_keep)
        thetas[start : start + n_keep] = t
        stats[start : start + n_keep] = s

    list((map if pool is None else pool.map)(run, range(0, m, CHUNK)))

    return SimulationBatch(
        thetas=thetas,
        stats=stats,
        seed=int(seed),
        model_name=sim.name,
        prior_hash=prior.spec_hash(),
    )


def _distance_matrix(stats: np.ndarray, s_obs: np.ndarray, scales: np.ndarray) -> np.ndarray:
    z = (stats - s_obs) / scales
    return np.sqrt(np.einsum("ij,ij->i", z, z))


def scales_from_matrix(stats: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-column robust scale: 1.4826 * MAD, falling back to the standard
    deviation, then to 1.0 (with a warning) for fully degenerate columns;
    also the number of those constant columns."""
    x = as_matrix(stats, "stats")
    # medians along contiguous rows of the transpose: same values, faster
    xt = np.ascontiguousarray(x.T)
    med = np.median(xt, axis=1, keepdims=True)
    scales = 1.4826 * np.median(np.abs(xt - med), axis=1)
    zero = scales == 0.0
    constant = 0
    if zero.any():
        scales = np.where(zero, x.std(axis=0, ddof=1) if x.shape[0] > 1 else 0.0, scales)
        still_zero = scales == 0.0
        constant = int(still_zero.sum())
        if constant:
            warnings.warn(
                f"{constant} constant statistic column(s); using scale 1.0 for them",
                stacklevel=2,
            )
            scales = np.where(still_zero, 1.0, scales)
    return scales, constant


def compute_scales(batch: SimulationBatch) -> tuple[np.ndarray, int]:
    """Robust per-statistic distance scales from a simulation batch, and
    the number of constant statistics among them (see scales_from_matrix)."""
    if batch.m < MIN_SCALE_DRAWS:
        raise ValueError(f"need at least {MIN_SCALE_DRAWS} draws to estimate scales")
    return scales_from_matrix(batch.stats)


def accepted_count(fraction: float, m: int) -> int:
    """The ceil(fraction * m) draws a fraction rejection keeps, with the
    fraction read as the decimal it was written as: 0.07 of 100 is 7,
    where the float product 7.000000000000001 would give 8."""
    return math.ceil(Fraction(repr(float(fraction))) * m)


def rejection_abc(
    batch: SimulationBatch,
    s_obs,
    *,
    epsilon: float | None = None,
    fraction: float | None = None,
    scales=None,
    provenance: dict | None = None,
) -> WeightedPosterior:
    """Keep the draws whose statistics are closest to the observed ones.

    Exactly one of `epsilon` (absolute distance threshold) or `fraction`
    (keep the ceil(fraction*M) smallest distances, ties broken by draw
    index) must be given. Scales default to compute_scales(batch), and the
    provenance then counts its constant statistics as `constant_columns`.
    The accepted draws, in draw order, form an equally weighted posterior;
    their batch's seed, model and prior hash stay with the batch.
    """
    if (epsilon is None) == (fraction is None):
        raise ValueError("give exactly one of epsilon or fraction")
    s_obs = as_vector(s_obs, "s_obs")
    if s_obs.shape[0] != batch.stat_dim:
        raise ValueError(
            f"s_obs has length {s_obs.shape[0]}, batch statistics have {batch.stat_dim}"
        )
    info = {}
    if scales is None:
        sc, info["constant_columns"] = compute_scales(batch)
    else:
        sc = as_vector(scales, "scales")
    if np.any(sc <= 0):
        raise ValueError("scales must be strictly positive")
    distances = _distance_matrix(batch.stats, s_obs, sc)

    if fraction is not None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        n_keep = accepted_count(fraction, batch.m)
        # every distance below the n_keep-th smallest, then the ties at it
        # in draw order: the first n_keep of a stable argsort, in O(M)
        kth = np.partition(distances, n_keep - 1)[n_keep - 1]
        mask = distances < kth
        mask[np.flatnonzero(distances == kth)[: n_keep - np.count_nonzero(mask)]] = True
    else:
        mask = distances <= epsilon
        if not mask.any():
            raise NumericalError(
                f"no draws within epsilon={epsilon}; "
                f"minimum observed distance {float(distances.min()):.6g}"
            )
    accepted = np.flatnonzero(mask)

    realized = float(distances[accepted].max())
    info.update(
        mode="fraction" if fraction is not None else "epsilon",
        requested=fraction if fraction is not None else epsilon,
        n_simulated=batch.m,
    )
    if provenance:
        info.update(provenance)
    return WeightedPosterior(
        thetas=batch.thetas[accepted],
        epsilon=realized,
        accepted_indices=accepted,
        provenance=info,
    )


def truncation_from_pilot(accepted: WeightedPosterior) -> TruncationRegion:
    """Bounding box of accepted draws.

    Zero-range coordinates are widened to a tiny but valid interval so the
    region always has positive volume.
    """
    if accepted.n < 2:
        raise ValueError("need at least 2 accepted draws")
    lo = accepted.thetas.min(axis=0)
    hi = accepted.thetas.max(axis=0)
    degenerate = lo == hi
    if degenerate.any():
        pad = 1e-8 * np.maximum(1.0, np.abs(lo))
        lo = np.where(degenerate, lo - pad, lo)
        hi = np.where(degenerate, hi + pad, hi)
    return TruncationRegion(lo=lo, hi=hi)


def regression_adjust(
    posterior: WeightedPosterior,
    stats_of_accepted,
    s_obs,
    ridge_lambda: float = 0.0,
) -> WeightedPosterior:
    """Linear post-hoc correction theta - B_hat (s - s_obs) of accepted draws.

    Fits theta on s by affine least squares over the equally weighted
    draws. The ridge penalty is `ridge_lambda * n`, which puts
    `ridge_lambda` on the mean of the squared residuals rather than on
    their sum. The fit's condition number and VIFs are attached to
    provenance so over-adjustment risk under collinear or uninformative
    statistics stays visible to downstream reports. They describe the
    centered accepted statistics. VIFs above 1e12 report the sentinel 1e18.
    """
    stats = as_matrix(stats_of_accepted, "stats_of_accepted")
    s_obs = as_vector(s_obs, "s_obs")
    if stats.shape[0] != posterior.n:
        raise ValueError("stats_of_accepted rows must match the posterior draw count")
    if stats.shape[1] != s_obs.shape[0]:
        raise ValueError("s_obs length must match the statistic dimension")
    if posterior.n < stats.shape[1] + 2:
        raise NumericalError(
            f"need at least {stats.shape[1] + 2} accepted draws to adjust, got {posterior.n}"
        )
    if np.max(np.abs(stats - s_obs)) == 0.0:
        # every accepted statistic equals the observation: zero innovation,
        # nothing to fit and nothing to correct
        info = dict(posterior.provenance)
        info["adjustment"] = {"kind": "linear_regression", "trivial": True}
        return replace(posterior, provenance=info)
    fit = fit_linear(stats, posterior.thetas, ridge_lambda * posterior.n)
    adjusted = posterior.thetas - (stats - s_obs) @ fit.coef.T
    info = dict(posterior.provenance)
    info["adjustment"] = {
        "kind": "linear_regression",
        "ridge_lambda": float(ridge_lambda),
        "condition_number": fit.condition_number,
        "vifs": fit.vifs.tolist(),
    }
    return replace(posterior, thetas=adjusted, provenance=info)
