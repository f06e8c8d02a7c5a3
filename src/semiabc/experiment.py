"""Replicated accuracy studies: how estimation degrades as targets multiply.

Two strategies are compared. "joint" builds one projector and runs one
ABC pass over all targets at once, so the summary dimension grows with
the target count; "separate" runs an independent pipeline per declared
target group (singletons by default). Per-replicate errors against the
fixture oracle, summary dimensions, acceptance counts, and regression
condition numbers are recorded; directional findings are reported, not
asserted.

The study runs replicate by replicate. Each replicate's stage batches that
do not depend on the targets (pilot, construct and main with raw pilot
statistics; the pilot alone with projected ones) are simulated once and
shared by all of its cells, and only one replicate's batches are held at a
time.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .engine import derive_seed
from .errors import ConfigError, NumericalError
from .models import ModelFixture
from .runconfig import ExperimentConfig, RunConfig
from .semiauto import (
    TAG_EXPERIMENT,
    build_fixture,
    run_semiauto,
    shared_stage_batches,
    targets_from_specs,
)

STRATEGIES = ("joint", "separate")


@dataclass(frozen=True)
class ExperimentPlan:
    """Strategies, target grouping, and per-replicate seeds."""

    strategies: tuple[str, ...]
    groups: tuple[tuple[int, ...], ...]
    replications: int
    seeds: tuple[int, ...]

    def __post_init__(self):
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if len(self.seeds) != self.replications:
            raise ConfigError("need exactly one seed per replicate")
        flat = sorted(i for g in self.groups for i in g)
        if flat != list(range(len(flat))):
            raise ConfigError("groups must partition the target indices exactly")
        if not self.groups or any(not g for g in self.groups):
            raise ConfigError("groups must be nonempty")


def plan_from_config(exp: ExperimentConfig, n_targets: int, base_seed: int) -> ExperimentPlan:
    groups = exp.groups if exp.groups is not None else tuple((i,) for i in range(n_targets))
    seeds = (
        exp.seeds
        if exp.seeds is not None
        else tuple(derive_seed(base_seed, TAG_EXPERIMENT, r) for r in range(exp.replications))
    )
    return ExperimentPlan(
        strategies=exp.strategies, groups=groups, replications=exp.replications, seeds=seeds
    )


@dataclass(frozen=True)
class ExperimentRow:
    strategy: str
    replicate: int
    seed: int
    group_label: str
    target: str
    p_prime: int  # number of targets handled jointly in this run
    estimate: float
    oracle_value: float
    abs_error: float
    summary_dim: int
    n_accepted: int
    epsilon: float
    construction_condition: float
    adjustment_condition: float | None = None


@dataclass(frozen=True)
class ExperimentFailure:
    strategy: str
    replicate: int
    seed: int
    group_label: str
    message: str


@dataclass
class ExperimentReport:
    rows: list[ExperimentRow] = field(default_factory=list)
    failures: list[ExperimentFailure] = field(default_factory=list)

    def error_by_p_prime(self) -> dict:
        """(strategy, p') -> {mean, median, n} of absolute errors."""
        return self._aggregate(lambda r: (r.strategy, r.p_prime), lambda r: r.abs_error)

    def condition_by_p_prime(self) -> dict:
        """(strategy, p') -> {mean, median, n} of construction condition numbers."""
        return self._aggregate(
            lambda r: (r.strategy, r.p_prime), lambda r: r.construction_condition
        )

    def error_by_target(self) -> dict:
        """(strategy, target) -> {mean, median, n} of absolute errors."""
        return self._aggregate(lambda r: (r.strategy, r.target), lambda r: r.abs_error)

    def _aggregate(self, key, value) -> dict:
        buckets: dict = {}
        for row in self.rows:
            buckets.setdefault(key(row), []).append(value(row))
        return {
            k: {
                "mean": statistics.fmean(v),
                "median": statistics.median(v),
                "n": len(v),
            }
            for k, v in sorted(buckets.items(), key=lambda kv: repr(kv[0]))
        }

    def cross_strategy_discrepancy(self) -> dict:
        """target -> {mean, max, n} of |joint - separate| estimate gaps at
        matched (replicate, target); measures whether separately estimated
        quantities stay consistent with the joint analysis."""
        joint = {
            (r.replicate, r.target): r.estimate for r in self.rows if r.strategy == "joint"
        }
        gaps: dict[str, list[float]] = {}
        for r in self.rows:
            if r.strategy != "separate":
                continue
            key = (r.replicate, r.target)
            if key in joint:
                gaps.setdefault(r.target, []).append(abs(r.estimate - joint[key]))
        return {
            t: {"mean": statistics.fmean(v), "max": max(v), "n": len(v)}
            for t, v in sorted(gaps.items())
        }

    def to_dict(self) -> dict:
        return {
            "rows": [vars(r) for r in self.rows],
            "failures": [vars(f) for f in self.failures],
            "error_by_p_prime": _stringify_keys(self.error_by_p_prime()),
            "condition_by_p_prime": _stringify_keys(self.condition_by_p_prime()),
            "error_by_target": _stringify_keys(self.error_by_target()),
            "cross_strategy_discrepancy": self.cross_strategy_discrepancy(),
        }


def _stringify_keys(table: dict) -> dict:
    return {"/".join(str(p) for p in k): v for k, v in table.items()}


def _run_one(
    config: RunConfig,
    fixture: ModelFixture,
    strategy: str,
    replicate: int,
    seed: int,
    group: tuple[int, ...],
    batches: dict,
) -> list[ExperimentRow]:
    group_targets = tuple(config.targets[i] for i in group)
    # The run seed depends only on (replicate seed); a separate-strategy
    # singleton therefore reproduces the joint run on the same single
    # target bit for bit.
    sub = replace(config, targets=group_targets, seed=seed, experiment=None)
    result = run_semiauto(sub, fixture, batches=batches)
    targets = targets_from_specs(group_targets, fixture.simulator.param_dim)
    adjustment = result.posterior.provenance.get("adjustment")
    label = "+".join(t.label() for t in group_targets)
    rows = []
    for target in targets:
        oracle_value = float(fixture.oracle.target_mean(target))
        estimate = result.estimates[target.name]["estimate"]
        rows.append(
            ExperimentRow(
                strategy=strategy,
                replicate=replicate,
                seed=seed,
                group_label=label,
                target=target.name,
                p_prime=len(group_targets),
                estimate=estimate,
                oracle_value=oracle_value,
                abs_error=abs(estimate - oracle_value),
                summary_dim=result.projector.out_dim,
                n_accepted=result.posterior.n,
                epsilon=result.posterior.epsilon,
                construction_condition=result.projector.condition_number,
                adjustment_condition=(
                    float(adjustment["condition_number"]) if adjustment else None
                ),
            )
        )
    return rows


def run_experiment(
    plan: ExperimentPlan,
    config: RunConfig,
    fixture: ModelFixture | None = None,
    *,
    threads: int = 1,
) -> ExperimentReport:
    """Execute every (strategy, replicate, group) cell of the plan.

    Replicates are independent deterministic units keyed by their seed,
    run one after another: a replicate's target-free stage batches are
    simulated once (spread over `threads`) and shared by its cells, which
    then run on `threads` workers. Rows keep the strategy-major cell order.
    Numerical and validation failures (NumericalError, ValueError) are
    recorded in the report instead of aborting the study; any other
    exception is a bug and propagates.
    """
    fixture = fixture if fixture is not None else build_fixture(config)
    all_indices = tuple(range(len(config.targets)))
    cells = []
    for strategy in plan.strategies:
        groups = (all_indices,) if strategy == "joint" else plan.groups
        for replicate, seed in enumerate(plan.seeds):
            for group in groups:
                cells.append((strategy, replicate, seed, group))

    def run_cell(cell, batches):
        strategy, replicate, seed, group = cell
        label = "+".join(config.targets[i].label() for i in group)
        try:
            return _run_one(config, fixture, strategy, replicate, seed, group, batches), None
        except (NumericalError, ValueError) as exc:  # recorded, not fatal
            return [], ExperimentFailure(
                strategy=strategy,
                replicate=replicate,
                seed=seed,
                group_label=label,
                message=f"{type(exc).__name__}: {exc}",
            )

    def run_replicate(replicate, seed):
        # The batches are local to this call: one replicate's are freed
        # before the next replicate simulates its own. Cells only read them.
        batches = shared_stage_batches(replace(config, seed=seed), fixture, threads=threads)
        mine = [i for i, cell in enumerate(cells) if cell[1] == replicate]
        run = lambda i: run_cell(cells[i], batches)  # noqa: E731
        if threads > 1:
            # A pool per replicate: its threads end before the next
            # replicate's simulation threads start, which then reuse their
            # malloc arenas rather than hold arenas of their own.
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return zip(mine, list(pool.map(run, mine)))
        return zip(mine, [run(i) for i in mine])

    outcomes = [None] * len(cells)
    for replicate, seed in enumerate(plan.seeds):
        for i, outcome in run_replicate(replicate, seed):
            outcomes[i] = outcome

    report = ExperimentReport()
    for rows, failure in outcomes:
        report.rows.extend(rows)
        if failure is not None:
            report.failures.append(failure)
    return report
