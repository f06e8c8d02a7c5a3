"""Summary-statistic construction and the two-stage inference pipeline.

A pilot rejection pass restricts the parameter space to a box; on a fresh
batch from the restricted prior, each target functional of the parameters
is regressed on (a basis expansion of) the raw statistics; the fitted
regression mean response becomes the summary statistic for that target -
exactly one constructed statistic per target. The main ABC run then
operates in the constructed-summary space.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .engine import (
    SimulationBatch,
    TruncationRegion,
    WeightedPosterior,
    derive_seed,
    regression_adjust,
    rejection_abc,
    scales_from_matrix,
    simulate_batch,
    truncation_from_pilot,
)
from .errors import ConfigError, NumericalError
from .linalg import as_matrix, as_vector
from .models import ModelFixture, apply_prior_overrides, gpd_quantile, make_fixture
from .regression import BasisSpec, expand_basis, expand_design, fit_linear
from .runconfig import RunConfig, TargetSpec

# Stage tags for deriving child seeds from the config seed. Fixed forever:
# changing them changes every artifact.
TAG_PILOT = 1
TAG_CONSTRUCT = 2
TAG_MAIN = 3
TAG_MARGINAL = 4
TAG_EXPERIMENT = 6

TARGET_KINDS = ("coordinate", "gpd_quantile", "custom")


@dataclass(frozen=True)
class TargetFunctional:
    """A named scalar function of the parameter vector.

    `fn` is vectorized: it maps an (M, p) parameter matrix to the (M,)
    vector of functional values.
    """

    name: str
    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    coordinate: int | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ConfigError(f"unknown target kind {self.kind!r}")


def coordinate_target(index: int, transform: str = "raw", name: str | None = None) -> TargetFunctional:
    """Posterior mean of theta_index (or of log theta_index)."""
    if transform not in ("raw", "log"):
        raise ConfigError("transform must be 'raw' or 'log'")
    if transform == "log":
        fn = lambda thetas: np.log(thetas[:, index])  # noqa: E731
        default = f"log_theta_{index}"
    else:
        fn = lambda thetas: thetas[:, index]  # noqa: E731
        default = f"theta_{index}"
    return TargetFunctional(
        name=name or default, kind="coordinate", fn=fn, coordinate=index
    )


def gpd_quantile_target(tau: float, name: str | None = None) -> TargetFunctional:
    """The GPD distribution quantile at level tau as a function of (sigma, xi)."""
    if not 0.0 < tau < 1.0:
        raise ConfigError("tau must lie in (0, 1)")
    fn = lambda thetas: gpd_quantile(tau, thetas[:, 0], thetas[:, 1])  # noqa: E731
    return TargetFunctional(name=name or f"gpd_q{tau:g}", kind="gpd_quantile", fn=fn, tau=tau)


def custom_target(name: str, fn: Callable[[np.ndarray], np.ndarray]) -> TargetFunctional:
    return TargetFunctional(name=name, kind="custom", fn=fn)


def targets_from_specs(specs: tuple[TargetSpec, ...], param_dim: int) -> tuple[TargetFunctional, ...]:
    out = []
    for spec in specs:
        if spec.kind == "coordinate":
            if spec.index >= param_dim:
                raise ConfigError(
                    f"target coordinate {spec.index} out of range for {param_dim} parameters"
                )
            out.append(coordinate_target(spec.index, spec.transform, spec.name))
        elif spec.kind == "gpd_quantile":
            out.append(gpd_quantile_target(spec.tau, spec.name))
        else:
            raise ConfigError(f"cannot build target of kind {spec.kind!r} from config")
    names = [t.name for t in out]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate target names: {names}")
    return tuple(out)


def evaluate_targets(thetas, targets) -> np.ndarray:
    """Apply each target rowwise: column j holds target j's values."""
    t = as_matrix(thetas, "thetas")
    if not targets:
        raise ValueError("targets must be nonempty")
    out = np.empty((t.shape[0], len(targets)))
    for j, target in enumerate(targets):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            values = np.asarray(target.fn(t), dtype=np.float64)
        if values.shape != (t.shape[0],):
            raise ValueError(
                f"target {target.name!r} returned shape {values.shape}, "
                f"expected ({t.shape[0]},)"
            )
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"target {target.name!r} evaluated non-finite")
        out[:, j] = values
    return out


@dataclass(frozen=True)
class SummaryProjector:
    """Affine map s -> intercept + coef . f(s), one output per target."""

    basis: BasisSpec
    intercept: np.ndarray  # (p',)
    coef: np.ndarray  # (p', q)
    target_names: tuple[str, ...]
    condition_number: float
    vifs: np.ndarray  # (q,)
    residual_mss: np.ndarray  # (p',)
    region: TruncationRegion | None = None
    n_fit: int = 0

    def __post_init__(self):
        if self.coef.shape[0] != len(self.target_names):
            raise ValueError("projector must emit exactly one statistic per target")
        if self.intercept.shape != (self.coef.shape[0],):
            raise ValueError("intercept length mismatch")

    @property
    def out_dim(self) -> int:
        return len(self.target_names)

    def to_dict(self) -> dict:
        d = {
            "basis": {
                "kind": self.basis.kind,
                "degree": self.basis.degree,
                "exponents": (
                    [list(e) for e in self.basis.exponents]
                    if self.basis.exponents is not None
                    else None
                ),
                "name": self.basis.name,
                "include_intercept": self.basis.include_intercept,
            },
            "intercept": self.intercept.tolist(),
            "coef": self.coef.tolist(),
            "target_names": list(self.target_names),
            "condition_number": self.condition_number,
            "vifs": self.vifs.tolist(),
            "residual_mss": self.residual_mss.tolist(),
            "region": self.region.to_dict() if self.region is not None else None,
            "n_fit": self.n_fit,
        }
        return d

    @staticmethod
    def from_dict(data: dict) -> "SummaryProjector":
        b = data["basis"]
        basis = BasisSpec(
            kind=b["kind"],
            degree=b.get("degree"),
            exponents=(
                tuple(tuple(int(x) for x in e) for e in b["exponents"])
                if b.get("exponents") is not None
                else None
            ),
            name=b.get("name"),
            include_intercept=b.get("include_intercept", True),
        )
        region = data.get("region")
        return SummaryProjector(
            basis=basis,
            intercept=np.asarray(data["intercept"], dtype=np.float64),
            coef=np.asarray(data["coef"], dtype=np.float64),
            target_names=tuple(data["target_names"]),
            condition_number=float(data["condition_number"]),
            vifs=np.asarray(data["vifs"], dtype=np.float64),
            residual_mss=np.asarray(data["residual_mss"], dtype=np.float64),
            region=TruncationRegion.from_dict(region) if region else None,
            n_fit=int(data.get("n_fit", 0)),
        )

    def projector_id(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def construct_projector(
    batch: SimulationBatch,
    targets,
    basis: BasisSpec,
    ridge_lambda: float = 0.0,
) -> SummaryProjector:
    """Regress the evaluated targets on the expanded statistics.

    The batch should come from the restricted (truncated) prior recorded
    in its provenance; the projector keeps that region for downstream
    stages and reporting.
    """
    design = expand_design(batch.stats, basis)
    if batch.m < design.shape[1] + 2:
        raise ValueError(
            f"need at least {design.shape[1] + 2} draws to fit {design.shape[1]} "
            f"basis columns, got {batch.m}"
        )
    responses = evaluate_targets(batch.thetas, targets)
    fit = fit_linear(design, responses, ridge_lambda, intercept=basis.include_intercept)
    return SummaryProjector(
        basis=basis,
        intercept=fit.intercept,
        coef=fit.coef,
        target_names=tuple(t.name for t in targets),
        condition_number=fit.condition_number,
        vifs=fit.vifs,
        residual_mss=fit.residual_mss,
        region=batch.region,
        n_fit=batch.m,
    )


def project(projector: SummaryProjector, s) -> np.ndarray:
    """Constructed summary vector for a single raw statistic vector."""
    v = as_vector(s, "s")
    return projector.intercept + projector.coef @ expand_basis(v, projector.basis)


def project_matrix(projector: SummaryProjector, stats) -> np.ndarray:
    """Constructed summaries for each row of an (N, d) statistic matrix."""
    design = expand_design(stats, projector.basis)
    return projector.intercept + design @ projector.coef.T


def _projected_batch(batch: SimulationBatch, projector: SummaryProjector) -> SimulationBatch:
    return SimulationBatch(
        thetas=batch.thetas,
        stats=project_matrix(projector, batch.stats),
        seed=batch.seed,
        model_name=batch.model_name,
        prior_hash=batch.prior_hash,
        region=batch.region,
    )


@dataclass(frozen=True)
class PipelineResult:
    """Everything a semi-automatic run produces, stage by stage."""

    pilot_batch: SimulationBatch
    pilot_posterior: WeightedPosterior
    region: TruncationRegion
    construct_batch: SimulationBatch
    projector: SummaryProjector
    main_batch: SimulationBatch
    posterior: WeightedPosterior
    estimates: dict = field(default_factory=dict)  # name -> {estimate, mc_sd}


def build_fixture(config: RunConfig) -> ModelFixture:
    fixture = make_fixture(config.model, config.model_params)
    if config.prior_overrides:
        fixture = apply_prior_overrides(fixture, config.prior_overrides)
    return fixture


def _stage_batch(
    config: RunConfig,
    fixture: ModelFixture,
    tag: int,
    region: TruncationRegion | None,
    threads: int,
    batches: dict | None,
) -> SimulationBatch:
    """The batch of one stage, taken from `batches` when it already holds it.

    Within one fixture `simulate_batch` is a pure function of (prior spec
    hash, m, seed), and the spec hash covers the truncation box, so that
    triple, which the batch records as (prior_hash, m, seed), keys `batches`.
    """
    prior = fixture.prior if region is None else fixture.prior.truncated(region)
    m = {TAG_PILOT: config.pilot_m, TAG_CONSTRUCT: config.effective_construct_m,
         TAG_MAIN: config.main_m}[tag]
    seed = derive_seed(config.seed, tag)
    if batches is not None:
        batch = batches.get((prior.spec_hash(), m, seed))
        if batch is not None:
            return batch
    return simulate_batch(prior, fixture.simulator, m, seed, threads=threads)


def shared_stage_batches(config: RunConfig, fixture: ModelFixture, *, threads: int = 1) -> dict:
    """The stage batches of `config` that do not depend on its targets.

    The pilot batch never does; with raw pilot statistics neither does the
    truncation region, so the construct and main batches are included too.
    The dict is keyed for `run_semiauto(..., batches=...)`, which lets runs
    that differ only in their targets simulate each batch once. A numerical
    or validation failure stops the filling: a run given the partial dict
    simulates the rest and meets the same failure itself.
    """
    batches: dict = {}

    def keep(batch: SimulationBatch) -> SimulationBatch:
        batches[(batch.prior_hash, batch.m, batch.seed)] = batch
        return batch

    try:
        pilot = keep(_stage_batch(config, fixture, TAG_PILOT, None, threads, None))
        if config.pilot_statistics == "raw":
            _, region = stage_pilot(config, fixture, pilot)
            keep(_stage_batch(config, fixture, TAG_CONSTRUCT, region, threads, None))
            keep(_stage_batch(config, fixture, TAG_MAIN, region, threads, None))
    except (NumericalError, ValueError):
        pass
    return batches


def stage_pilot_batch(
    config: RunConfig, fixture: ModelFixture, *, threads: int = 1, batches: dict | None = None
) -> SimulationBatch:
    return _stage_batch(config, fixture, TAG_PILOT, None, threads, batches)


def stage_pilot(
    config: RunConfig, fixture: ModelFixture, pilot_batch: SimulationBatch
) -> tuple[WeightedPosterior, TruncationRegion]:
    """Rejection on the pilot batch, then the truncation box of its draws."""
    targets = targets_from_specs(config.targets, fixture.simulator.param_dim)
    if config.pilot_statistics == "projected":
        # Preliminary projector fitted on the pilot batch itself (there is
        # no restricted region yet at this stage).
        prelim = construct_projector(pilot_batch, targets, config.basis, config.ridge_lambda)
        batch = _projected_batch(pilot_batch, prelim)
        s_obs = project(prelim, fixture.s_obs)
    else:
        batch = pilot_batch
        s_obs = fixture.s_obs
    accepted = rejection_abc(
        batch,
        s_obs,
        fraction=config.pilot_accept_fraction,
        provenance={"stage": "pilot", "statistics": config.pilot_statistics},
    )
    region = truncation_from_pilot(accepted, config.pilot_expand)
    return accepted, region


def stage_construct(
    config: RunConfig,
    fixture: ModelFixture,
    region: TruncationRegion,
    *,
    threads: int = 1,
    batches: dict | None = None,
) -> tuple[SimulationBatch, SummaryProjector]:
    """Fresh truncated batch (never reusing pilot draws) and the projector."""
    targets = targets_from_specs(config.targets, fixture.simulator.param_dim)
    batch = _stage_batch(config, fixture, TAG_CONSTRUCT, region, threads, batches)
    projector = construct_projector(batch, targets, config.basis, config.ridge_lambda)
    return batch, projector


def stage_infer(
    config: RunConfig,
    fixture: ModelFixture,
    region: TruncationRegion,
    projector: SummaryProjector,
    *,
    threads: int = 1,
    batches: dict | None = None,
) -> tuple[SimulationBatch, WeightedPosterior]:
    """Main run: simulate under the truncated prior, compare in projected
    space with scales recomputed there, optionally regression-adjust."""
    main_batch = _stage_batch(config, fixture, TAG_MAIN, region, threads, batches)
    projected = project_matrix(projector, main_batch.stats)
    proj_batch = replace(main_batch, stats=projected)
    s_obs_proj = project(projector, fixture.s_obs)
    posterior = rejection_abc(
        proj_batch,
        s_obs_proj,
        fraction=config.main_accept_fraction,
        scales=scales_from_matrix(projected),
        provenance={
            "stage": "infer",
            "projector_id": projector.projector_id(),
            "config_hash": config.config_hash(),
        },
    )
    if config.regression_adjust:
        posterior = regression_adjust(
            posterior,
            projected[posterior.accepted_indices],
            s_obs_proj,
            ridge_lambda=config.ridge_lambda,
        )
    return main_batch, posterior


def posterior_target_estimates(posterior: WeightedPosterior, targets) -> dict:
    """Weighted posterior-mean estimate and Monte Carlo sd per target."""
    values = evaluate_targets(posterior.thetas, targets)
    w = posterior.weights
    means = w @ values
    ess = 1.0 / float(w @ w)
    variances = w @ (values - means) ** 2
    mc_sd = np.sqrt(np.maximum(variances, 0.0) / ess)
    return {
        t.name: {"estimate": float(means[j]), "mc_sd": float(mc_sd[j])}
        for j, t in enumerate(targets)
    }


def run_semiauto(
    config: RunConfig,
    fixture: ModelFixture | None = None,
    *,
    threads: int = 1,
    batches: dict | None = None,
) -> PipelineResult:
    """Full pipeline: pilot -> truncation -> construction -> main ABC run.

    Deterministic: (config, seed) fully determines every stage; `threads`
    never changes values. `batches` (see `shared_stage_batches`) is only
    read: a stage batch it holds is used instead of simulated, which gives
    the same values. Nothing is written to disk, whatever
    `config.output_dir` holds; the CLI is the persisted path.
    """
    fixture = fixture if fixture is not None else build_fixture(config)
    targets = targets_from_specs(config.targets, fixture.simulator.param_dim)
    pilot_batch = stage_pilot_batch(config, fixture, threads=threads, batches=batches)
    pilot_posterior, region = stage_pilot(config, fixture, pilot_batch)
    construct_batch, projector = stage_construct(
        config, fixture, region, threads=threads, batches=batches
    )
    main_batch, posterior = stage_infer(
        config, fixture, region, projector, threads=threads, batches=batches
    )
    estimates = posterior_target_estimates(posterior, targets)
    return PipelineResult(
        pilot_batch=pilot_batch,
        pilot_posterior=pilot_posterior,
        region=region,
        construct_batch=construct_batch,
        projector=projector,
        main_batch=main_batch,
        posterior=posterior,
        estimates=estimates,
    )
