"""Marginal adjustment: replace the margins of a joint posterior sample.

Each parameter coordinate gets its own low-dimensional-summary run whose
accepted draws estimate the marginal posterior far more precisely than
the joint run does. Rank/quantile matching then substitutes those margins
into the joint sample while preserving its per-row rank (copula)
structure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import WeightedPosterior, derive_seed
from .models import ModelFixture
from .runconfig import RunConfig, TargetSpec
from .semiauto import TAG_MARGINAL, build_fixture, run_semiauto


@dataclass(frozen=True)
class MarginalEstimate:
    """Equally-weighted draws approximating one coordinate's posterior."""

    coordinate: int
    samples: np.ndarray  # (N_i,)
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.shape[0] < 2:
            raise ValueError("marginal estimate needs at least 2 draws")
        if not np.all(np.isfinite(s)):
            raise ValueError("marginal samples must be finite")
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def estimate_marginal(
    coordinate: int,
    config: RunConfig,
    fixture: ModelFixture | None = None,
    *,
    threads: int = 1,
) -> MarginalEstimate:
    """Run the pipeline with a single summary targeting one coordinate.

    The constructed statistic for the coordinate alone is, by default, the
    per-coordinate summary; the run is seeded independently per coordinate
    so marginals for different coordinates can be computed in parallel.
    """
    fixture = fixture if fixture is not None else build_fixture(config)
    if not 0 <= coordinate < fixture.simulator.param_dim:
        raise ValueError(f"coordinate {coordinate} out of range")
    sub_config = replace(
        config,
        targets=(TargetSpec(kind="coordinate", index=coordinate),),
        marginal_adjust=False,
        seed=derive_seed(config.seed, TAG_MARGINAL, coordinate),
    )
    result = run_semiauto(sub_config, fixture, threads=threads)
    posterior = result.posterior
    return MarginalEstimate(
        coordinate=coordinate,
        samples=posterior.thetas[:, coordinate].copy(),
        provenance={
            "stage": "marginal",
            "coordinate": coordinate,
            "seed": sub_config.seed,
            "projector_id": result.projector.projector_id(),
            "epsilon": posterior.epsilon,
            "n": posterior.n,
        },
    )


def _stable_ranks(column: np.ndarray) -> np.ndarray:
    """Rank of each entry, ties broken by original row index."""
    order = np.argsort(column, kind="stable")
    ranks = np.empty(column.shape[0], dtype=np.intp)
    ranks[order] = np.arange(column.shape[0])
    return ranks


def _marginal_order_stats(samples: np.ndarray, n: int) -> np.ndarray:
    """N evenly-spaced quantiles (type-7 interpolation) of a marginal sample.

    Index positions r (n_i - 1) / (n - 1) are computed in exact integer
    arithmetic so that a marginal identical to the joint column reproduces
    it bitwise (float positions would contaminate exact order statistics
    with ulp-sized interpolation).
    """
    srt = np.sort(samples)
    n_i = srt.shape[0]
    if n == 1:
        num = np.array([n_i - 1])
        den = 2
    else:
        num = np.arange(n) * (n_i - 1)
        den = n - 1
    lo = num // den
    frac = (num % den) / den
    hi = np.minimum(lo + 1, n_i - 1)
    return np.where(frac == 0.0, srt[lo], srt[lo] + frac * (srt[hi] - srt[lo]))


def marginal_remap(
    joint: WeightedPosterior,
    marginals: list[MarginalEstimate],
    skip: tuple[int, ...] = (),
) -> WeightedPosterior:
    """Replace covered margins of the joint sample by rank/quantile matching.

    For each covered coordinate, the draw holding rank r (ties broken by
    row index) receives the r-th of N evenly-spaced type-7 quantiles of
    the marginal sample; row pairing, and hence the joint rank structure,
    is untouched. The joint sample must carry uniform weights (use
    systematic_resample first if it does not); every coordinate must be
    covered by a marginal or listed in `skip`.
    """
    if not joint.is_uniform():
        raise ValueError("joint posterior has non-uniform weights; resample joint first")
    p = joint.thetas.shape[1]
    covered = {m.coordinate for m in marginals}
    if len(covered) != len(marginals):
        raise ValueError("duplicate marginal coordinates")
    missing = set(range(p)) - covered - set(skip)
    if missing:
        raise ValueError(
            f"coordinates {sorted(missing)} are neither covered by a marginal nor skipped"
        )
    n = joint.n
    thetas = joint.thetas.copy()
    sources = {}
    for marginal in marginals:
        if marginal.n < n:
            raise ValueError(
                f"marginal for coordinate {marginal.coordinate} has {marginal.n} draws, "
                f"joint has {n}; need at least as many"
            )
        i = marginal.coordinate
        ranks = _stable_ranks(thetas[:, i])
        thetas[:, i] = _marginal_order_stats(marginal.samples, n)[ranks]
        sources[str(i)] = dict(marginal.provenance)
    info = dict(joint.provenance)
    info["marginal_adjustment"] = {"sources": sources, "skipped": list(skip)}
    return WeightedPosterior(
        thetas=thetas,
        weights=joint.weights,
        epsilon=joint.epsilon,
        distances=joint.distances,
        accepted_indices=joint.accepted_indices,
        provenance=info,
    )
