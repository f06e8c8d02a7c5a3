"""Marginal adjustment: replace the margins of a joint posterior sample.

Coordinate i's summary is row i of one fit of every coordinate on the
joint run's construct batch (Nott, Fan, Marshall and Sisson 2014); an ABC
run on that summary alone, over the joint run's main batch, estimates the
marginal posterior more precisely than the joint run does. Rank/quantile
matching then substitutes those margins into the joint sample while
preserving its per-row rank (copula) structure exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import WeightedPosterior
from .models import ModelFixture
from .runconfig import RunConfig, TargetSpec
from .semiauto import build_fixture, run_semiauto, shared_stages


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
    config: RunConfig,
    fixture: ModelFixture | None = None,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> list[MarginalEstimate]:
    """One estimate per parameter coordinate, in order.

    The stages of `config` are computed once with every coordinate as a
    target (`shared_stages`): only the projector depends on the targets,
    so the pilot, region and batches are the joint run's. Coordinate i's
    main ABC pass then reads row i of that projector alone.
    """
    fixture = fixture if fixture is not None else build_fixture(config)
    coordinates = [TargetSpec("coordinate", index=i) for i in range(fixture.simulator.param_dim)]
    shared = shared_stages(replace(config, targets=tuple(coordinates)), fixture, pool=pool)
    out = []
    for i, target in enumerate(coordinates):
        held = {**shared, "projector": shared["projector"].rows([i])}
        result = run_semiauto(replace(config, targets=(target,)), fixture, held=held)
        posterior = result.posterior
        provenance = {"projector_id": result.projector.projector_id(), "epsilon": posterior.epsilon}
        out.append(MarginalEstimate(i, posterior.thetas[:, i].copy(), provenance))
    return out


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
) -> WeightedPosterior:
    """Replace every margin of the joint sample by rank/quantile matching.

    For each coordinate, the draw holding rank r (ties broken by
    row index) receives the r-th of N evenly-spaced type-7 quantiles of
    the marginal sample; row pairing, and hence the joint rank structure,
    is untouched, and the result stays equally weighted. Every coordinate
    must be covered by a marginal. The provenance lists each marginal's
    coordinate and provenance in coordinate order; the accepted indices
    and `epsilon` stay the joint's, so `posterior_main` holds them too.
    """
    p = joint.thetas.shape[1]
    covered = {m.coordinate for m in marginals}
    if len(covered) != len(marginals):
        raise ValueError("duplicate marginal coordinates")
    if extra := covered - set(range(p)):
        raise ValueError(f"marginal coordinates {sorted(extra)} are not in the {p}-parameter joint")
    if missing := set(range(p)) - covered:
        raise ValueError(f"coordinates {sorted(missing)} are not covered by a marginal")
    n = joint.n
    thetas = joint.thetas.copy()
    for marginal in marginals:
        if marginal.n < n:
            raise ValueError(
                f"marginal for coordinate {marginal.coordinate} has {marginal.n} draws, "
                f"joint has {n}; need at least as many"
            )
        i = marginal.coordinate
        ranks = _stable_ranks(thetas[:, i])
        thetas[:, i] = _marginal_order_stats(marginal.samples, n)[ranks]
    ordered = sorted(marginals, key=lambda m: m.coordinate)
    sources = [{"coordinate": m.coordinate, **m.provenance} for m in ordered]
    return replace(joint, thetas=thetas, provenance={"marginals": sources})
