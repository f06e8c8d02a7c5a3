"""Replicated accuracy studies: how estimation degrades as targets multiply.

Two strategies are compared. "joint" runs one ABC pass over all targets
at once, so the summary dimension grows with the target count;
"separate" runs one ABC pass per target on that target's summary alone.
Per-replicate errors against the fixture oracle, acceptance counts, and
regression condition numbers are recorded; directional findings are
reported, not asserted.

The study runs replicate by replicate. A replicate's stage batches and
its pilot rejection on the raw statistics do not depend on the targets,
and a group's projector is its rows of the all-target fit: all are
computed once (`shared_stages`) and shared by the replicate's cells, and
only one replicate's are held at a time.
"""

from __future__ import annotations

import statistics
# only a type here; the benchmark tracer still resolves and swaps this name
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .engine import derive_seed
from .errors import ConfigError, NumericalError
from .models import ModelFixture
from .runconfig import RunConfig
from .semiauto import (
    TAG_EXPERIMENT,
    build_fixture,
    check_draw_counts,
    run_semiauto,
    shared_stages,
    targets_from_specs,
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

    def adjustment_condition_by_p_prime(self) -> dict:
        """(strategy, p') -> {mean, median, n} of adjustment condition numbers,
        trivial adjustments skipped; all cells share their replicate's construct fit."""
        return self._aggregate(lambda r: (r.strategy, r.p_prime), lambda r: r.adjustment_condition)

    def error_by_target(self) -> dict:
        """(strategy, target) -> {mean, median, n} of absolute errors."""
        return self._aggregate(lambda r: (r.strategy, r.target), lambda r: r.abs_error)

    def _aggregate(self, key, value) -> dict:
        buckets: dict = {}
        for row in self.rows:
            if (v := value(row)) is not None:
                buckets.setdefault(key(row), []).append(v)
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
        tables = ("error_by_p_prime", "adjustment_condition_by_p_prime", "error_by_target")
        return {
            "rows": [vars(r) for r in self.rows],
            "failures": [vars(f) for f in self.failures],
            **{
                name: {"/".join(map(str, k)): v for k, v in getattr(self, name)().items()}
                for name in tables
            },
            "cross_strategy_discrepancy": self.cross_strategy_discrepancy(),
        }


def _run_one(
    config: RunConfig,
    fixture: ModelFixture,
    strategy: str,
    replicate: int,
    seed: int,
    group: tuple[int, ...],
    shared: dict,
    oracle_values: dict,
) -> list[ExperimentRow]:
    group_targets = tuple(config.targets[i] for i in group)
    # Every cell of a replicate runs at its seed, so in a one-target study a
    # separate cell reproduces the joint cell bit for bit; with more targets
    # its row of the all-target projector matches a one-target fit only to rounding.
    sub = replace(config, targets=group_targets, seed=seed, experiment=None)
    held = {**shared, "projector": shared["projector"].rows(group)}
    result = run_semiauto(sub, fixture, held=held)
    # a trivial adjustment (zero innovation) fits nothing and has no condition number
    adjustment = result.posterior.provenance.get("adjustment", {})
    label = "+".join(t.name for t in group_targets)
    rows = []
    for target in group_targets:
        oracle_value = oracle_values[target.name]
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
                n_accepted=result.posterior.n,
                epsilon=result.posterior.epsilon,
                construction_condition=result.projector.condition_number,
                adjustment_condition=adjustment.get("condition_number"),
            )
        )
    return rows


def run_experiment(
    config: RunConfig,
    fixture: ModelFixture | None = None,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> ExperimentReport:
    """Execute every (strategy, replicate, group) cell of `config.experiment`.

    A joint cell runs all targets as one group, a separate cell one target
    alone. Replicate r runs at seed `derive_seed(config.seed,
    TAG_EXPERIMENT, r)`. The oracle value of each target is computed once,
    before any cell runs. A config without an `experiment` section, a
    target the fixture's oracle cannot evaluate, and too few draws for the
    pilot, the basis fit or a 2-draw posterior (`check_draw_counts`), which
    every cell would meet, are refused with a ConfigError before anything
    is simulated.

    Replicates are independent deterministic units keyed by their seed,
    run one after another: a replicate's `shared_stages` for all targets
    are computed once and shared by its cells. `pool`, an `engine.worker_pool`
    (None: serially), maps the simulation chunks, then the cells, which
    never simulate. A NumericalError is recorded, never retried: in a cell
    it fails that cell; in the shared stages, which do not depend on the
    targets, it fails every cell of the replicate with one message. Any
    other exception is a bug and propagates. Rows and failures keep the
    strategy-major cell order.
    """
    plan = config.experiment
    if plan is None:
        raise ConfigError("config has no 'experiment' section")
    seeds = [derive_seed(config.seed, TAG_EXPERIMENT, r) for r in range(plan.replications)]
    fixture = fixture if fixture is not None else build_fixture(config)
    targets = targets_from_specs(config.targets, fixture.simulator.param_dim)
    # A group's adjustment draw count is recorded per cell, so the main
    # run is checked here only for the draws every cell needs.
    check_draw_counts(replace(config, regression_adjust=False), fixture.simulator.stat_dim)
    oracle_values = {}
    for i, target in enumerate(targets):
        try:
            oracle_values[target.name] = float(fixture.oracle.target_mean(target))
        except NotImplementedError as exc:
            raise ConfigError(f"has no oracle value to score against: {exc}", f"targets[{i}]")
    indices = range(len(targets))
    groups = {"joint": (tuple(indices),), "separate": tuple((i,) for i in indices)}
    cells = [(strategy, group) for strategy in plan.strategies for group in groups[strategy]]

    def failure(cell, replicate, seed, exc):
        strategy, group = cell
        label = "+".join(config.targets[i].name for i in group)
        return ExperimentFailure(strategy, replicate, seed, label, f"{type(exc).__name__}: {exc}")

    def run_replicate(replicate, seed):
        # The stage outputs are local to this call: one replicate's are freed
        # before the next replicate simulates its own. Cells only read them.
        try:
            shared = shared_stages(replace(config, seed=seed), fixture, pool=pool)
        except NumericalError as exc:  # recorded, not fatal: every cell needs them
            return [failure(cell, replicate, seed, exc) for cell in cells]

        def run(cell):
            strategy, group = cell
            try:
                return _run_one(
                    config, fixture, strategy, replicate, seed, group, shared, oracle_values
                )
            except NumericalError as exc:  # recorded, not fatal
                return failure(cell, replicate, seed, exc)

        return list((map if pool is None else pool.map)(run, cells))

    report = ExperimentReport()
    for replicate, seed in enumerate(seeds):
        for outcome in run_replicate(replicate, seed):
            if isinstance(outcome, ExperimentFailure):
                report.failures.append(outcome)
            else:
                report.rows.extend(outcome)
    report.rows.sort(key=lambda row: plan.strategies.index(row.strategy))
    report.failures.sort(key=lambda f: plan.strategies.index(f.strategy))
    return report
