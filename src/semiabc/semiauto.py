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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .engine import (
    CHUNK,
    MIN_SCALE_DRAWS,
    SimulationBatch,
    TruncationRegion,
    WeightedPosterior,
    accepted_count,
    derive_seed,
    regression_adjust,
    rejection_abc,
    simulate_batch,
    truncation_from_pilot,
)
from .errors import ConfigError, NumericalError
from .linalg import as_matrix, as_vector
from .models import ModelFixture, make_fixture
from .regression import BasisSpec, expand_design, fit_linear
from .runconfig import RunConfig, TargetSpec

# Stage tags for deriving child seeds from the config seed. Fixed forever:
# changing them changes every artifact.
TAG_PILOT = 1
TAG_CONSTRUCT = 2
TAG_MAIN = 3
TAG_EXPERIMENT = 6


def targets_from_specs(specs: tuple[TargetSpec, ...], param_dim: int) -> tuple[TargetSpec, ...]:
    """The target specs of a run, once each fits a model with `param_dim`
    parameters and no two share a name; errors name `targets[i]`.

    `run_semiauto`, `run_experiment` and the CLI check a run's targets
    with it once; the stage functions take `config.targets` as checked.
    """
    for i, spec in enumerate(specs):
        if spec.kind == "gpd_quantile" and param_dim != 2:
            raise ConfigError(
                f"needs the two GPD parameters (sigma, xi); the model has {param_dim}",
                f"targets[{i}]",
            )
        if spec.kind == "coordinate" and spec.index >= param_dim:
            raise ConfigError(
                f"{spec.index} is out of range for a model with {param_dim} parameters",
                f"targets[{i}].index",
            )
    names = [spec.name for spec in specs]
    for i, name in enumerate(names):
        if names.index(name) != i:
            raise ConfigError(
                f"repeats the name {name!r} of targets[{names.index(name)}]", f"targets[{i}].name"
            )
    return tuple(specs)


def check_draw_counts(config: RunConfig, stat_dim: int) -> None:
    """Refuse a run whose fits would get too few draws, before any stage runs.

    The pilot rejection scales its distances from `MIN_SCALE_DRAWS` draws
    or more, and the truncation box needs 2 of the draws it accepts. The
    construct fit of q basis columns by least squares needs q + 2 of its
    `construct.m` draws. The main rejection scales its projected distances
    from its `MIN_SCALE_DRAWS` draws or more. Regression adjustment fits the
    p' projected statistics on the accepted main draws, so it needs p' + 2
    of them; a marginal estimate needs 2.
    """
    accepted = accepted_count(config.pilot_accept_fraction, config.pilot_m)
    if config.pilot_m < MIN_SCALE_DRAWS or accepted < 2:
        raise ConfigError(
            f"is {config.pilot_m}, which accepts {accepted} at accept_fraction "
            f"{config.pilot_accept_fraction:g}; the pilot needs {MIN_SCALE_DRAWS} draws to "
            "scale its distances and 2 accepted ones for the truncation region",
            "pilot.m",
        )
    q, m = config.basis.width(stat_dim), config.effective_construct_m
    if m < q + 2:
        raise ConfigError(
            f"is {m}, but fitting the {q} basis columns needs at least {q + 2} draws",
            "construct.m",
        )
    p_prime = len(config.targets)
    accepted = accepted_count(config.main_accept_fraction, config.main_m)
    need, use = (
        (p_prime + 2, f"regression adjustment on {p_prime} summaries needs")
        if config.regression_adjust
        else (2, "the posterior and each marginal estimate need")
    )
    if config.main_m < MIN_SCALE_DRAWS or accepted < need:
        raise ConfigError(
            f"is {config.main_m}, which accepts {accepted} draws at accept_fraction "
            f"{config.main_accept_fraction:g}; the main run needs {MIN_SCALE_DRAWS} draws "
            f"to scale its distances, and {use} at least {need}",
            "main.m",
        )


def evaluate_targets(thetas, targets) -> np.ndarray:
    """Apply each target rowwise: column j holds target j's values."""
    t = as_matrix(thetas, "thetas")
    if not targets:
        raise ValueError("targets must be nonempty")
    out = np.empty((t.shape[0], len(targets)))
    for j, target in enumerate(targets):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            values = target.fn(t)
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

    def __post_init__(self):
        if self.coef.ndim != 2:
            raise ValueError(f"coef must be 2-dimensional, got shape {self.coef.shape}")
        # Column-major, as the fit returns it: a BLAS product rounds by the
        # layout of its operands, and a reloaded projector must project
        # bit for bit as the one fitted in memory.
        object.__setattr__(self, "coef", np.asfortranarray(self.coef))
        if self.coef.shape[0] != len(self.target_names):
            raise ValueError("projector must emit exactly one statistic per target")
        if self.intercept.shape != (self.coef.shape[0],):
            raise ValueError("intercept length mismatch")
        if self.residual_mss.shape != (self.coef.shape[0],):
            raise ValueError("residual_mss length mismatch")
        if self.vifs.shape != (self.coef.shape[1],):
            raise ValueError("vifs length mismatch")

    @property
    def out_dim(self) -> int:
        return len(self.target_names)

    def rows(self, indices) -> "SummaryProjector":
        """The targets at `indices`: a fit's row j reads only target j's response."""
        i = list(indices)
        return replace(
            self,
            intercept=self.intercept[i],
            coef=self.coef[i],
            target_names=tuple(self.target_names[j] for j in i),
            residual_mss=self.residual_mss[i],
        )

    def to_dict(self) -> dict:
        return {
            "basis": asdict(self.basis),
            "intercept": self.intercept.tolist(),
            "coef": self.coef.tolist(),
            "target_names": list(self.target_names),
            "condition_number": self.condition_number,
            "vifs": self.vifs.tolist(),
            "residual_mss": self.residual_mss.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "SummaryProjector":
        basis = data["basis"]
        return SummaryProjector(
            basis=BasisSpec(basis["kind"], basis["degree"]),
            intercept=np.asarray(data["intercept"], dtype=np.float64),
            coef=np.asarray(data["coef"], dtype=np.float64),
            target_names=tuple(data["target_names"]),
            condition_number=float(data["condition_number"]),
            vifs=np.asarray(data["vifs"], dtype=np.float64),
            residual_mss=np.asarray(data["residual_mss"], dtype=np.float64),
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

    The batch should come from the restricted (truncated) prior, whose box
    is part of its `prior_hash`. The projector does not keep that box: a
    run's region is stored once, by the pilot stage.

    The fit reads `_design_blocks` once: each row is expanded once, no
    stage holds the whole design, and `residual_mss` is the fit's own.
    """
    q = basis.width(batch.stats.shape[1])
    if batch.m < q + 2:
        raise ValueError(f"need at least {q + 2} draws to fit {q} basis columns, got {batch.m}")
    responses = evaluate_targets(batch.thetas, targets)
    fit = fit_linear(_design_blocks(batch.stats, basis), responses, ridge_lambda)
    return SummaryProjector(
        basis=basis,
        intercept=fit.intercept,
        coef=fit.coef,
        target_names=tuple(t.name for t in targets),
        condition_number=fit.condition_number,
        vifs=fit.vifs,
        residual_mss=fit.residual_mss,
    )


# The most bytes a float64 design block may hold: `CHUNK` rows of up to
# 256 columns. A wider basis gets fewer rows per block, so the one
# [R; block] stack the construct fit holds stays near 11 MB at q = 559.
# It also fixes where blocks split, and so `project_matrix`'s bits.
_BLOCK_BYTES = 8 << 20


def _design_blocks(stats: np.ndarray, basis: BasisSpec):
    """Yield (rows, `expand_design` of those rows) for consecutive row
    slices of an (N, d) statistic array, expanding each row once, as its
    block is asked for. A caller that deletes each block before asking
    for the next holds one block, never the (N, q) design.

    A slice has `CHUNK` rows, or fewer when the basis is wider than 256
    columns: a block holds at most `_BLOCK_BYTES`. The blocks are the
    whole design's rows bit for bit, but a product or fit taken block by
    block rounds by where the blocks split: a fit's R factor does, and so
    can a BLAS product row (see README).
    """
    step = max(1, min(CHUNK, _BLOCK_BYTES // (8 * basis.width(stats.shape[1]))))
    for start in range(0, stats.shape[0], step):
        rows = slice(start, start + step)
        yield rows, expand_design(stats[rows], basis)


def project(projector: SummaryProjector, s) -> np.ndarray:
    """Constructed summary vector for a single raw statistic vector."""
    return project_matrix(projector, as_vector(s, "s")[None])[0]


def project_matrix(projector: SummaryProjector, stats) -> np.ndarray:
    """Constructed summaries for each row of an (N, d) statistic matrix."""
    s = as_matrix(stats, "stats")
    out = np.empty((s.shape[0], projector.out_dim))
    for rows, block in _design_blocks(s, projector.basis):
        out[rows] = projector.intercept + block @ projector.coef.T
        del block
    return out


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
    estimates: dict  # name -> {estimate, mc_sd}


def build_fixture(config: RunConfig) -> ModelFixture:
    try:
        return make_fixture(config.model, config.model_params)
    except ConfigError as exc:
        raise exc.under("model") from None


def stage_batch(
    config: RunConfig,
    fixture: ModelFixture,
    name: str,
    region: TruncationRegion | None = None,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> SimulationBatch:
    """Simulate the stage batch `name`, the `PipelineResult` field
    `pilot_batch`, `construct_batch` or `main_batch`, from the prior
    truncated to `region` when one is given. The name fixes the batch's
    draw count and the `TAG_*` its seed is derived with."""
    tag, m = {
        "pilot_batch": (TAG_PILOT, config.pilot_m),
        "construct_batch": (TAG_CONSTRUCT, config.effective_construct_m),
        "main_batch": (TAG_MAIN, config.main_m),
    }[name]
    prior = fixture.prior if region is None else fixture.prior.truncated(region)
    seed = derive_seed(config.seed, tag)
    return simulate_batch(prior, fixture.simulator, m, seed, pool=pool)


def stage_pilot(
    config: RunConfig, fixture: ModelFixture, pilot_batch: SimulationBatch
) -> tuple[WeightedPosterior, TruncationRegion]:
    """Rejection on the raw statistics of the pilot batch, then the
    truncation box of its accepted draws."""
    accepted = rejection_abc(
        pilot_batch,
        fixture.s_obs,
        fraction=config.pilot_accept_fraction,
        provenance={"stage": "pilot"},
    )
    return accepted, truncation_from_pilot(accepted)


def stage_construct(config: RunConfig, batch: SimulationBatch) -> SummaryProjector:
    """The projector fitted on the construct batch: fresh draws from the
    truncated prior, never the pilot's."""
    return construct_projector(batch, config.targets, config.basis, config.ridge_lambda)


def stage_infer(
    config: RunConfig,
    fixture: ModelFixture,
    projector: SummaryProjector,
    batch: SimulationBatch,
) -> WeightedPosterior:
    """Main run on the main batch: compare in projected space with scales
    recomputed there by `rejection_abc`, optionally regression-adjust.

    The batch is projected once; the adjustment takes the accepted rows of
    that projection, since a BLAS product rounds by row position."""
    projected = project_matrix(projector, batch.stats)
    s_obs_proj = project(projector, fixture.s_obs)
    posterior = rejection_abc(
        replace(batch, stats=projected),
        s_obs_proj,
        fraction=config.main_accept_fraction,
        provenance={"stage": "infer", "projector_id": projector.projector_id()},
    )
    if config.regression_adjust:
        posterior = regression_adjust(
            posterior,
            projected[posterior.accepted_indices],
            s_obs_proj,
            ridge_lambda=config.ridge_lambda,
        )
    return posterior


def shared_stages(
    config: RunConfig, fixture: ModelFixture, *, pool: ThreadPoolExecutor | None = None
) -> dict:
    """Every stage output of `config` but the posterior, keyed by
    `PipelineResult` field name for `run_semiauto(..., held=...)`. Only the
    projector depends on the targets, so runs on subsets of them share
    these, each with its `SummaryProjector.rows`."""
    out = {"pilot_batch": stage_batch(config, fixture, "pilot_batch", pool=pool)}
    out["pilot_posterior"], out["region"] = stage_pilot(config, fixture, out["pilot_batch"])
    out["construct_batch"] = stage_batch(
        config, fixture, "construct_batch", out["region"], pool=pool
    )
    out["projector"] = stage_construct(config, out["construct_batch"])
    # The main batch is simulated after the construct fit, so that it is
    # not held through the fit: simulated before it, it raised the peak RSS
    # (VmHWM) of a fresh `infer --full` process on the degree-3 GPD config
    # (q = 559, a 2.4 MB main batch) from 95.9-96.1 to 98.2-98.4 MiB in 3
    # of 3 pairs of runs on a 2-core host.
    out["main_batch"] = stage_batch(config, fixture, "main_batch", out["region"], pool=pool)
    return out


def posterior_target_estimates(posterior: WeightedPosterior, targets) -> dict:
    """Posterior-mean estimate and Monte Carlo sd per target."""
    values = evaluate_targets(posterior.thetas, targets)
    means = values.mean(axis=0)
    mc_sd = np.sqrt(((values - means) ** 2).mean(axis=0) / posterior.n)
    return {
        t.name: {"estimate": float(means[j]), "mc_sd": float(mc_sd[j])}
        for j, t in enumerate(targets)
    }


def run_semiauto(
    config: RunConfig,
    fixture: ModelFixture | None = None,
    *,
    pool: ThreadPoolExecutor | None = None,
    held: dict | None = None,
) -> PipelineResult:
    """Full pipeline: pilot -> truncation -> construction -> main ABC run.

    Deterministic: (config, seed) fully determines every stage; `pool`
    (`engine.worker_pool`) never changes values. `held`, when given, is every other stage output,
    as `shared_stages` returns them; it is only read. Nothing is written to
    disk, whatever `config.output_dir` holds; the CLI is the persisted path.
    """
    fixture = fixture if fixture is not None else build_fixture(config)
    targets = targets_from_specs(config.targets, fixture.simulator.param_dim)
    out = dict(held) if held is not None else shared_stages(config, fixture, pool=pool)
    out["posterior"] = stage_infer(config, fixture, out["projector"], out["main_batch"])
    return PipelineResult(**out, estimates=posterior_target_estimates(out["posterior"], targets))
