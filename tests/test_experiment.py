from dataclasses import replace

import numpy as np
import pytest

from semiabc import experiment, semiauto
from semiabc.engine import derive_seed, regression_adjust, worker_pool
from semiabc.errors import ConfigError, NumericalError
from semiabc.experiment import ExperimentFailure, _run_one, run_experiment
from semiabc.semiauto import TAG_EXPERIMENT, build_fixture, shared_stages
from semiabc.runconfig import ExperimentConfig, RunConfig, TargetSpec


def lg_config(**over):
    base = dict(
        model="linear_gaussian",
        model_params={
            "p": 2,
            "d": 2,
            "coeffs": [[1.0, 0.0], [1.0, 1.0]],
            "noise_sd": 1.0,
            "s_obs": [1.0, 2.0],
        },
        pilot_m=1000,
        pilot_accept_fraction=0.1,
        construct_m=1500,
        main_m=4000,
        main_accept_fraction=0.05,
        targets=(TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)),
        seed=7,
    )
    base.update(over)
    return RunConfig(**base)


@pytest.fixture
def pool():
    """A pool of two worker threads, as `--threads 2` opens."""
    with worker_pool(2) as pool:
        yield pool


def with_plan(config, **plan):
    """`config` with the experiment section `ExperimentConfig(**plan)`."""
    return replace(config, experiment=ExperimentConfig(**plan))


def derived_seeds(config):
    """The replicate seeds `run_experiment` derives for a plan that lists none."""
    return tuple(
        derive_seed(config.seed, TAG_EXPERIMENT, r) for r in range(config.experiment.replications)
    )


class TestPlan:
    def test_run_experiment_defaults_to_singletons(self):
        config = with_plan(lg_config(seed=9), strategies=("separate",), replications=3)
        report = run_experiment(config)
        assert not report.failures
        assert [r.group_label for r in report.rows] == ["theta_0", "theta_1"] * 3
        seeds = derived_seeds(config)
        assert len(set(seeds)) == 3
        assert [r.seed for r in report.rows] == [seed for seed in seeds for _ in range(2)]


class TestRun:
    def test_bookkeeping_one_target(self):
        config = with_plan(
            lg_config(targets=(TargetSpec("coordinate", index=0),)),
            strategies=("joint",), replications=3,
        )
        report = run_experiment(config)
        assert len(report.rows) == 3
        assert not report.failures
        assert all(r.target == "theta_0" and r.p_prime == 1 for r in report.rows)
        table = report.error_by_p_prime()
        assert table[("joint", 1)]["n"] == 3
        # oracle: hand-derived conditioning mean 0.8 for coordinate 0
        assert all(r.oracle_value == pytest.approx(0.8) for r in report.rows)

    def test_separate_singletons_reproduce_joint_single_target_bitwise(self):
        single = lg_config(targets=(TargetSpec("coordinate", index=0),))
        plan = with_plan(single, strategies=("joint", "separate"), replications=2)
        report = run_experiment(plan)
        joint_rows = {r.replicate: r for r in report.rows if r.strategy == "joint"}
        single_rows = {r.replicate: r for r in report.rows if r.strategy == "separate"}
        assert joint_rows.keys() == single_rows.keys() == {0, 1}
        for rep, jr in joint_rows.items():
            sr = single_rows[rep]
            assert sr.estimate == jr.estimate  # bit-for-bit
            assert sr.epsilon == jr.epsilon
            assert sr.n_accepted == jr.n_accepted

        # In a two-target study the separate cell projects with its row of
        # the two-target fit, which matches the one-target fit only to
        # rounding: at seeds 1, 2, 3 and 7 epsilon differed by at most
        # 8e-15 relative, with the same accepted draws.
        both = lg_config()
        separate_report = run_experiment(
            with_plan(both, strategies=("separate",), replications=2)
        )
        sep_rows = {
            r.replicate: r for r in separate_report.rows if r.target == "theta_0"
        }
        assert joint_rows.keys() == sep_rows.keys()
        for rep, jr in joint_rows.items():
            sr = sep_rows[rep]
            assert sr.estimate == pytest.approx(jr.estimate, rel=1e-13, abs=0)
            assert sr.epsilon == pytest.approx(jr.epsilon, rel=1e-13, abs=0)
            assert sr.n_accepted == jr.n_accepted

    def test_joint_strategy_handles_all_targets_at_once(self):
        config = with_plan(lg_config(), strategies=("joint",), replications=2)
        report = run_experiment(config)
        assert len(report.rows) == 4  # 2 replicates x 2 targets
        assert all(r.p_prime == 2 for r in report.rows)

    def test_failures_recorded_not_fatal(self):
        # 3 accepted draws, too few to adjust on the 2 summaries of each
        # joint cell (too small a construct.m is refused up front instead)
        config = with_plan(
            lg_config(main_m=60, regression_adjust=True), strategies=("joint",), replications=2
        )
        report = run_experiment(config)
        assert len(report.failures) == 2
        assert not report.rows
        assert "draws" in report.failures[0].message

    def test_oracle_values_are_computed_once_per_target(self, monkeypatch):
        config = lg_config()
        fixture = build_fixture(config)
        calls = []
        target_mean = fixture.oracle.target_mean
        monkeypatch.setattr(
            fixture.oracle, "target_mean", lambda t: calls.append(t.name) or target_mean(t)
        )
        config = with_plan(config, strategies=("joint", "separate"), replications=2)
        report = run_experiment(config, fixture)
        assert len(report.rows) == 8 and not report.failures
        assert calls == ["theta_0", "theta_1"]

    def test_target_without_oracle_value_is_refused_before_any_cell(self, monkeypatch):
        from semiabc import experiment

        cells = []
        monkeypatch.setattr(experiment, "_run_one", lambda *args: cells.append(args) or [])
        quantile = TargetSpec("gpd_quantile", tau=0.9)  # no closed form on this model
        config = lg_config(targets=(TargetSpec("coordinate", index=0), quantile))
        with pytest.raises(ConfigError, match=r"'targets\[1\]' has no oracle value"):
            run_experiment(with_plan(config, replications=1))
        assert not cells

    @pytest.mark.parametrize(
        "pilot_m, fraction", [(5, 0.5), (20, 0.05)], ids=["too_few_to_scale", "one_accepted"]
    )
    def test_too_few_pilot_draws_are_refused_before_simulating(
        self, monkeypatch, pilot_m, fraction
    ):
        calls = []
        monkeypatch.setattr(semiauto, "simulate_batch", lambda *a, **k: calls.append(a))
        config = lg_config(pilot_m=pilot_m, pilot_accept_fraction=fraction)
        with pytest.raises(ConfigError, match=f"'pilot.m' is {pilot_m}, which accepts"):
            run_experiment(with_plan(config, strategies=("joint",), replications=1))
        assert calls == []

    def test_programming_errors_propagate(self, monkeypatch):
        from semiabc import experiment

        def broken(*args):
            raise TypeError("a bug, not a data point")

        monkeypatch.setattr(experiment, "_run_one", broken)
        config = with_plan(lg_config(), strategies=("joint",), replications=1)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(config)

    def test_value_errors_of_the_shared_stages_propagate(self, monkeypatch):
        # the draw counts are checked up front, so a ValueError in the
        # target-free stages is a bug, not a recorded failure
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

        monkeypatch.setattr(semiauto, "stage_pilot", broken)
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=1)
        with pytest.raises(ValueError, match="could not be broadcast"):
            run_experiment(config)

    def test_value_errors_of_a_cell_propagate(self, monkeypatch):
        # only a NumericalError is a recorded failure: numpy raises
        # ValueError for a shape bug
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

        monkeypatch.setattr(semiauto, "stage_infer", broken)
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=1)
        with pytest.raises(ValueError, match="could not be broadcast"):
            run_experiment(config)

    def test_trivial_adjustment_records_no_condition(self, monkeypatch):
        from semiabc import experiment

        def trivially_adjusted(config, fixture, **kwargs):
            # statistics equal to the observation: zero innovation, nothing fitted
            result = semiauto.run_semiauto(config, fixture, **kwargs)
            post = result.posterior
            d = result.projector.out_dim
            adjusted = regression_adjust(post, np.zeros((post.n, d)), np.zeros(d))
            assert adjusted.provenance["adjustment"]["trivial"]
            return replace(result, posterior=adjusted)

        monkeypatch.setattr(experiment, "run_semiauto", trivially_adjusted)
        config = with_plan(lg_config(), strategies=("joint",), replications=2)
        report = run_experiment(config)
        assert len(report.rows) == 4 and not report.failures
        assert all(r.adjustment_condition is None for r in report.rows)
        assert report.adjustment_condition_by_p_prime() == {}

    def test_condition_table_varies_with_p_prime(self):
        # A replicate's cells share one construct fit, and so its condition
        # number; the adjustment fits the cell's p' summaries, and one
        # centred column has condition number 1.
        config = lg_config(regression_adjust=True)
        config = with_plan(config, strategies=("joint", "separate"), replications=2)
        table = run_experiment(config).to_dict()["adjustment_condition_by_p_prime"]
        assert set(table) == {"joint/2", "separate/1"}
        assert table["separate/1"] == {"mean": 1.0, "median": 1.0, "n": 4}
        assert table["joint/2"]["mean"] > 1.0 and table["joint/2"]["n"] == 4

    def test_cross_strategy_discrepancy_table(self):
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=2)
        report = run_experiment(config)
        table = report.cross_strategy_discrepancy()
        assert set(table) == {"theta_0", "theta_1"}
        assert all(v["n"] == 2 for v in table.values())

    def test_error_by_target_table(self):
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=2)
        report = run_experiment(config)
        assert len(report.rows) == 8 and not report.failures
        table = report.error_by_target()
        keys = [(s, t) for s in ("joint", "separate") for t in ("theta_0", "theta_1")]
        assert list(table) == keys
        for strategy, target in keys:
            errors = [r.abs_error for r in report.rows
                      if (r.strategy, r.target) == (strategy, target)]
            assert len(errors) == 2
            assert table[(strategy, target)] == {
                "mean": (errors[0] + errors[1]) / 2,
                "median": (errors[0] + errors[1]) / 2,
                "n": 2,
            }

    def test_threads_do_not_change_results(self):
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=2)
        serial = run_experiment(config)
        for threads in (2, 4):
            with worker_pool(threads) as pool:
                threaded = run_experiment(config, pool=pool)
            assert threaded.rows == serial.rows  # same rows, same order

    def test_each_replicate_simulates_its_batches_once(self, monkeypatch, pool):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2:4])  # (m, seed)
            return simulate(*args, **kwargs)

        simulate = semiauto.simulate_batch
        monkeypatch.setattr(semiauto, "simulate_batch", counting)
        config = lg_config()  # no batch depends on the targets
        config = with_plan(config, strategies=("joint", "separate"), replications=2)
        report = run_experiment(config, pool=pool)
        assert len(report.rows) == 8 and not report.failures
        # pilot, construct and main per replicate, shared by its 1 + 2 cells
        assert len(calls) == 3 * config.experiment.replications
        assert len(set(calls)) == len(calls)

    def test_each_replicate_rejects_on_its_pilot_once(self, monkeypatch, pool):
        # the shared stage outputs carry the pilot rejection to all 1 + 2 cells
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].seed)
            return stage_pilot(*args, **kwargs)

        stage_pilot = semiauto.stage_pilot
        monkeypatch.setattr(semiauto, "stage_pilot", counting)
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=2)
        report = run_experiment(config, pool=pool)
        assert len(report.rows) == 8 and not report.failures
        assert sorted(calls) == sorted(derived_seeds(config))

    def test_each_replicate_fits_its_projector_once(self, monkeypatch, pool):
        # the joint cell and both separate cells take rows of one fit
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].seed)
            return stage_construct(*args, **kwargs)

        stage_construct = semiauto.stage_construct
        monkeypatch.setattr(semiauto, "stage_construct", counting)
        config = with_plan(lg_config(), strategies=("joint", "separate"), replications=2)
        report = run_experiment(config, pool=pool)
        assert len(report.rows) == 8 and not report.failures
        assert sorted(calls) == sorted(derived_seeds(config))

    def test_a_replicate_whose_shared_stages_fail_records_each_cell_once(self, monkeypatch):
        # One observation makes the sample sd the constant 0, so every
        # replicate's construct fit is rank deficient, whatever its targets.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2:4])  # (m, seed)
            return simulate(*args, **kwargs)

        simulate = semiauto.simulate_batch
        monkeypatch.setattr(semiauto, "simulate_batch", counting)
        config = RunConfig(
            model="gaussian_location",
            model_params={"n": 1},
            pilot_m=2000,
            construct_m=2000,
            main_m=8000,
            targets=(TargetSpec("coordinate", index=0),),
            seed=3,
        )
        config = with_plan(config, strategies=("joint", "separate"), replications=2)
        report = run_experiment(config)
        assert not report.rows
        assert len(report.failures) == 4
        assert len({f.message for f in report.failures}) == 1
        assert report.failures[0].message.startswith("RankDeficientError: ")
        # the pilot and construct batches of each replicate, simulated once
        assert len(calls) == 2 * config.experiment.replications

    def test_a_replicate_whose_shared_stages_fail_keeps_the_cell_order(self, monkeypatch, pool):
        config = lg_config()
        fixture = build_fixture(config)
        config = with_plan(config, strategies=("joint", "separate"), replications=2)
        failing, passing = derived_seeds(config)

        def failing_first(sub, *args, **kwargs):
            if sub.seed == failing:
                raise NumericalError("shared stages failed")
            return shared_stages(sub, *args, **kwargs)

        monkeypatch.setattr(experiment, "shared_stages", failing_first)
        report = run_experiment(config, fixture, pool=pool)
        message = "NumericalError: shared stages failed"
        assert report.failures == [
            ExperimentFailure("joint", 0, failing, "theta_0+theta_1", message),
            ExperimentFailure("separate", 0, failing, "theta_0", message),
            ExperimentFailure("separate", 0, failing, "theta_1", message),
        ]
        oracle_values = {t.name: fixture.oracle.target_mean(t) for t in config.targets}
        shared = shared_stages(replace(config, seed=passing), fixture)
        alone = [
            row
            for strategy in config.experiment.strategies
            for group in (((0, 1),) if strategy == "joint" else ((0,), (1,)))
            for row in _run_one(config, fixture, strategy, 1, passing, group, shared, oracle_values)
        ]
        assert report.rows == alone

    def test_rows_equal_cells_run_alone(self, pool):
        config = lg_config()
        fixture = build_fixture(config)
        config = with_plan(config, strategies=("joint", "separate"), replications=2)
        report = run_experiment(config, fixture, pool=pool)
        oracle_values = {t.name: fixture.oracle.target_mean(t) for t in config.targets}
        seeds = derived_seeds(config)
        shared = [shared_stages(replace(config, seed=seed), fixture) for seed in seeds]
        alone = [
            row
            for strategy in config.experiment.strategies
            for replicate, seed in enumerate(seeds)
            for group in (((0, 1),) if strategy == "joint" else ((0,), (1,)))
            for row in _run_one(
                config, fixture, strategy, replicate, seed, group, shared[replicate], oracle_values
            )
        ]
        assert report.rows == alone

    def test_report_serialization(self):
        import json

        config = with_plan(
            lg_config(targets=(TargetSpec("coordinate", index=0),)),
            strategies=("joint",), replications=1,
        )
        report = run_experiment(config)
        payload = report.to_dict()
        assert json.dumps(payload)  # JSON-serializable
        assert payload["rows"][0]["target"] == "theta_0"
