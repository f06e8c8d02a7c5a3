"""Built-in simulators with exact or grid-based posterior oracles.

Every fixture couples a vectorized simulator with an oracle that is
computed without any ABC machinery (closed forms or grid integration
only), so pipeline accuracy claims can be checked against an independent
answer at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import PriorSpec, SimulatorContract, lognormal, ndtri, normal, uniform
from .errors import ConfigError

# Below this |xi| the exponential-limit branch of the GPD quantile/density
# is used; the two branches agree to ~1e-6 relative at the threshold.
GPD_SMALL_XI = 1e-6

# Raw statistic ladder for the GPD fixture: empirical quantiles plus mean
# and standard deviation (13 statistics).
GPD_QUANTILE_LADDER = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

# The GPD fixture's uniform prior bounds on xi, which its grid oracle spans.
GPD_XI_PRIOR = (-0.4, 0.9)

# The most bytes one float64 sample array of a GPD simulation block may
# hold: 655 rows at 100 exceedances, 65 at 1000. A core's L2 cache holds
# the two arrays a block needs; a whole 4096 x 100 chunk is 3.3 MB.
_SIM_BLOCK_BYTES = 1 << 19

_OBS_TAG = 7  # stream tag for fixture observed-data generation
GPD_OBS_SEED = 20260101  # seed of the GPD fixture's observed exceedances


def gpd_quantile(u, sigma, xi):
    """Inverse CDF of the generalized Pareto distribution.

    (sigma/xi) ((1-u)^(-xi) - 1), with the exponential limit
    -sigma log(1-u) when |xi| < 1e-6. Vectorized over any broadcastable
    combination of arguments.
    """
    u = np.asarray(u, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    small = np.abs(xi) < GPD_SMALL_XI
    xi_safe = np.where(small, 1.0, xi)
    # One output array, transformed in place: a simulation chunk is (n, k)
    # while sigma and xi are per row, so every full-size temporary counts.
    out = np.empty(np.broadcast_shapes(u.shape, sigma.shape, xi.shape))
    np.negative(u, out=out)
    np.log1p(out, out=out)
    limit = -sigma * out if small.any() else None
    out *= -xi_safe
    np.expm1(out, out=out)
    out *= sigma / xi_safe
    if limit is not None:
        np.copyto(out, limit, where=small)
    return out


def gpd_logpdf(x, sigma, xi):
    """Log density of GPD(sigma, xi); -inf outside the support."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    small = np.abs(xi) < GPD_SMALL_XI
    xi_safe = np.where(small, 1.0, xi)
    z = x / sigma
    arg = 1.0 + xi_safe * z
    inside = (x >= 0.0) & (small | (arg > 0.0))
    # a point with arg <= 0 is outside the support: its log is masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log(sigma) - (1.0 / xi_safe + 1.0) * np.log(arg)
    if small.any():
        out = np.where(small, -np.log(sigma) - z, out)
    return np.where(inside, out, -np.inf)


@dataclass(frozen=True)
class ModelFixture:
    """A simulator, its prior, observed statistics, and an oracle."""

    simulator: SimulatorContract
    prior: PriorSpec
    observed_data: np.ndarray
    s_obs: np.ndarray
    oracle: object


def _coordinate_index(target, oracle: str) -> int:
    """The index of a coordinate target, the only kind with a closed form."""
    if target.kind != "coordinate":
        raise NotImplementedError(
            f"the {oracle} oracle evaluates coordinate targets only, not {target.name!r}"
        )
    return target.index


class ConjugateNormalOracle:
    """Exact normal posterior for the Gaussian location fixture."""

    def __init__(self, post_mean: float, post_sd: float):
        self.post_mean = float(post_mean)
        self.post_sd = float(post_sd)

    def target_mean(self, target) -> float:
        if _coordinate_index(target, "conjugate normal") != 0:
            raise IndexError("Gaussian location model has a single parameter")
        return self.post_mean


class LinearGaussianOracle:
    """Exact Gaussian posterior: the joint prior `moments` of (theta, s)
    (`mean_theta`, `mean_s`, `var_theta`, `var_s`, `cov_theta_s`)
    conditioned on `s_obs`."""

    def __init__(self, moments: dict, s_obs: np.ndarray):
        self.moments = moments
        gain = np.linalg.solve(moments["var_s"], moments["cov_theta_s"].T).T  # p x d
        self.mean = moments["mean_theta"] + gain @ (s_obs - moments["mean_s"])
        self.cov = moments["var_theta"] - gain @ moments["cov_theta_s"].T

    def target_mean(self, target) -> float:
        return float(self.mean[_coordinate_index(target, "linear-Gaussian")])


class GpdGridOracle:
    """Grid posterior over (sigma, xi) for observed GPD exceedances.

    sigma is gridded log-uniformly and xi uniformly over the prior's
    0.1%-99.9% quantile box; normalization and functional means use
    trapezoidal weights (with the log-sigma Jacobian folded in). No ABC
    machinery is involved anywhere. The posterior over the grid is
    computed on first use of `weights`, so a run that never scores against
    the oracle never pays for it.
    """

    def __init__(self, observed, n_sigma: int = 200, n_xi: int = 200):
        self._observed = np.asarray(observed, dtype=np.float64)
        # prior box: lognormal(0,1) for sigma, uniform(*GPD_XI_PRIOR) for xi
        xi_lo, xi_hi = GPD_XI_PRIOR
        q = ndtri(0.001)
        self._log_sigma = np.linspace(q, -q, n_sigma)
        self.sigma_grid = np.exp(self._log_sigma)
        span = xi_hi - xi_lo
        self.xi_grid = np.linspace(xi_lo + 0.001 * span, xi_hi - 0.001 * span, n_xi)

    @cached_property
    def weights(self) -> np.ndarray:
        """Normalized posterior weight of each (sigma, xi) grid point."""
        log_post = np.empty((self.sigma_grid.size, self.xi_grid.size))
        # lognormal(0,1) log-pdf + const
        log_prior_sigma = -0.5 * self._log_sigma**2 - self._log_sigma
        for i, sigma in enumerate(self.sigma_grid):
            ll = gpd_logpdf(self._observed[None, :], sigma, self.xi_grid[:, None]).sum(axis=1)
            log_post[i] = ll + log_prior_sigma[i]
        log_post -= log_post.max()
        density = np.exp(log_post)

        # d sigma = sigma d log sigma
        w_sigma = _trapezoid_weights(self._log_sigma) * self.sigma_grid
        w_xi = _trapezoid_weights(self.xi_grid)
        weights = density * np.outer(w_sigma, w_xi)
        total = float(weights.sum())
        if not (np.isfinite(total) and total > 0):
            raise ValueError("grid posterior is degenerate; check the observed data")
        return weights / total

    def grid_points(self) -> np.ndarray:
        ss, xx = np.meshgrid(self.sigma_grid, self.xi_grid, indexing="ij")
        return np.column_stack([ss.ravel(), xx.ravel()])

    def target_mean(self, target) -> float:
        return float(self.weights.ravel() @ target.fn(self.grid_points()))


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros_like(grid)
    w[:-1] += 0.5 * np.diff(grid)
    w[1:] += 0.5 * np.diff(grid)
    return w


def gaussian_location_fixture(
    mu0: float = 0.0,
    tau0: float = 1.0,
    sigma: float = 1.0,
    n: int = 4,
    xbar_obs: float = 1.0,
    n_noise_stats: int = 0,
) -> ModelFixture:
    """Conjugate normal-location testbed.

    The simulator draws n observations N(theta, sigma^2) and reports their
    sample mean, sample standard deviation, and `n_noise_stats` pure-noise
    N(0,1) statistics. Only the mean is informative about theta; the rest
    exist to stress statistic selection. The observed dataset is a fixed
    pattern with sample mean exactly `xbar_obs` and sample sd `sigma`;
    observed noise statistics are set to their prior mean 0.
    """
    if tau0 <= 0 or sigma <= 0:
        raise ConfigError("tau0 and sigma must be positive")
    if n < 1 or n_noise_stats < 0:
        raise ConfigError("need n >= 1 and n_noise_stats >= 0")

    def simulate(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        rows = thetas.shape[0]
        data = thetas[:, [0]] + sigma * rng.standard_normal((rows, n))
        mean = data.mean(axis=1)
        sd = data.std(axis=1, ddof=1) if n > 1 else np.zeros(rows)
        cols = [mean, sd]
        if n_noise_stats:
            cols.append(rng.standard_normal((rows, n_noise_stats)))
        return np.column_stack(cols)

    simulator = SimulatorContract(
        name="gaussian_location",
        param_dim=1,
        stat_dim=2 + n_noise_stats,
        simulate=simulate,
    )
    prior = PriorSpec((normal(mu0, tau0),))

    if n > 1:
        pattern = np.linspace(-1.0, 1.0, n)
        pattern = (pattern - pattern.mean()) / pattern.std(ddof=1)
        observed = xbar_obs + sigma * pattern
        obs_sd = float(observed.std(ddof=1))
    else:
        observed = np.array([float(xbar_obs)])
        obs_sd = 0.0
    s_obs = np.concatenate(
        [[float(observed.mean()), obs_sd], np.zeros(n_noise_stats)]
    )

    post_var = 1.0 / (1.0 / tau0**2 + n / sigma**2)
    post_mean = post_var * (mu0 / tau0**2 + n * xbar_obs / sigma**2)
    oracle = ConjugateNormalOracle(post_mean, math.sqrt(post_var))
    return ModelFixture(
        simulator=simulator,
        prior=prior,
        observed_data=observed,
        s_obs=s_obs,
        oracle=oracle,
    )


def linear_gaussian_fixture(
    p: int = 2,
    d: int = 2,
    coeffs=None,
    noise_sd: float = 1.0,
    prior_mean=None,
    prior_sd=None,
    s_obs=None,
) -> ModelFixture:
    """Jointly Gaussian model s = C theta + noise with a closed-form posterior.

    The prior is independent normal per coordinate (prior_sd is a vector of
    standard deviations); rows of zeros in the coefficient matrix yield
    pure-noise statistics. Default observation: one prior-predictive
    standard deviation away from the prior-predictive mean per statistic.
    """
    if noise_sd <= 0:
        raise ConfigError("noise_sd must be positive")
    c = np.asarray(coeffs, dtype=np.float64) if coeffs is not None else np.eye(d, p)
    if c.shape != (d, p):
        raise ConfigError(f"coefficient matrix must be {d}x{p}, got {c.shape}")
    m0 = np.asarray(prior_mean, dtype=np.float64) if prior_mean is not None else np.zeros(p)
    sd0 = np.asarray(prior_sd, dtype=np.float64) if prior_sd is not None else np.ones(p)
    if m0.shape != (p,) or sd0.shape != (p,) or np.any(sd0 <= 0):
        raise ConfigError("prior_mean and prior_sd must be length-p with positive sds")

    prior_cov = np.diag(sd0**2)
    moments = {
        "mean_theta": m0,
        "mean_s": c @ m0,
        "var_theta": prior_cov,
        "var_s": c @ prior_cov @ c.T + noise_sd**2 * np.eye(d),
        "cov_theta_s": prior_cov @ c.T,
    }

    if s_obs is None:
        s_obs_arr = moments["mean_s"] + np.sqrt(np.diag(moments["var_s"]))
    else:
        s_obs_arr = np.asarray(s_obs, dtype=np.float64)
        if s_obs_arr.shape != (d,):
            raise ConfigError(f"s_obs must have length {d}")

    def simulate(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noise = rng.standard_normal((thetas.shape[0], d))
        return thetas @ c.T + noise_sd * noise

    simulator = SimulatorContract(
        name="linear_gaussian", param_dim=p, stat_dim=d, simulate=simulate
    )
    prior = PriorSpec(tuple(normal(m0[i], sd0[i]) for i in range(p)))
    return ModelFixture(
        simulator=simulator,
        prior=prior,
        observed_data=s_obs_arr,
        s_obs=s_obs_arr,
        oracle=LinearGaussianOracle(moments, s_obs_arr),
    )


def _gpd_stat_matrix(samples: np.ndarray) -> np.ndarray:
    """Quantile ladder plus mean and sd, rowwise over an (n, k) sample block.

    The ladder is `np.quantile(samples, GPD_QUANTILE_LADDER, axis=1,
    method="linear")` bit for bit, from one sort per row: numpy's virtual
    index (k - 1) q, its upper neighbour clamped to the last order
    statistic, and its two-sided `_lerp`, which interpolates down from the
    upper neighbour when gamma >= 0.5.

    Sorts `samples` in place along axis 1. The mean and sd are taken
    first, in draw order, so their bits do not depend on the sort; a
    caller that still needs the draw order passes a copy.
    """
    mean = samples.mean(axis=1)
    sd = samples.std(axis=1, ddof=1)
    samples.sort(axis=1)
    k = samples.shape[1]
    virtual = (k - 1) * np.asarray(GPD_QUANTILE_LADDER)
    lower = np.floor(virtual)
    gamma = virtual - lower
    lower = lower.astype(np.intp)
    upper = np.minimum(lower + 1, k - 1)
    a = samples[:, lower]
    b = samples[:, upper]
    diff = b - a
    quantiles = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return np.column_stack([quantiles, mean, sd])


def gpd_fixture(
    sigma_true: float = 1.0,
    xi_true: float = 0.2,
    n_exceedances: int = 100,
) -> ModelFixture:
    """Generalized Pareto exceedance model with a grid-posterior oracle.

    Simulates n exceedances by inverse CDF, reports the fixed quantile
    ladder plus mean and sd (13 statistics). Prior: sigma ~ lognormal(0,1),
    xi ~ uniform(*GPD_XI_PRIOR). The observed exceedances are drawn from
    `GPD_OBS_SEED`, and the oracle is `GpdGridOracle`'s default grid.
    """
    if sigma_true <= 0:
        raise ConfigError("sigma_true must be positive")
    if xi_true <= -0.5:
        raise ConfigError("xi_true must exceed -0.5")
    if n_exceedances < 3:
        raise ConfigError("need at least 3 exceedances for the statistic ladder")

    block = max(1, _SIM_BLOCK_BYTES // (8 * n_exceedances))

    def simulate(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Row blocks keep every pass over the samples in cache, with the
        # whole chunk's bits: `random` fills row-major from one stream, so
        # consecutive blocks draw the chunk's uniforms, and every statistic
        # is per row. No name holds the uniforms or the samples: the
        # uniforms are freed when gpd_quantile returns, the statistics sort
        # the samples in place, and they are freed before the next block
        # draws, so two sample arrays are alive at a time.
        out = np.empty((thetas.shape[0], len(GPD_QUANTILE_LADDER) + 2))
        for start in range(0, thetas.shape[0], block):
            theta = thetas[start:start + block]
            out[start:start + block] = _gpd_stat_matrix(gpd_quantile(
                rng.random((theta.shape[0], n_exceedances)), theta[:, [0]], theta[:, [1]]
            ))
        return out

    simulator = SimulatorContract(
        name="gpd", param_dim=2, stat_dim=len(GPD_QUANTILE_LADDER) + 2, simulate=simulate
    )
    # Proper default prior covering both heavy and bounded tails while
    # keeping the grid oracle well posed.
    prior = PriorSpec((lognormal(0.0, 1.0), uniform(*GPD_XI_PRIOR)))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((GPD_OBS_SEED, _OBS_TAG))))
    observed = gpd_quantile(rng.random(n_exceedances), sigma_true, xi_true)
    s_obs = _gpd_stat_matrix(observed[None, :].copy())[0]  # keep the draw order

    oracle = GpdGridOracle(observed)
    return ModelFixture(
        simulator=simulator,
        prior=prior,
        observed_data=observed,
        s_obs=s_obs,
        oracle=oracle,
    )


FIXTURES = {
    "gaussian_location": gaussian_location_fixture,
    "linear_gaussian": linear_gaussian_fixture,
    "gpd": gpd_fixture,
}


def make_fixture(name: str, params: dict | None = None) -> ModelFixture:
    """Build a fixture by registry name, e.g. from CLI configuration."""
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; available: {sorted(FIXTURES)}"
        ) from None
    try:
        return builder(**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from None
