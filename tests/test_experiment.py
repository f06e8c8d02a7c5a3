import pytest

from semiabc.errors import ConfigError
from semiabc.experiment import ExperimentPlan, plan_from_config, run_experiment
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


class TestPlan:
    def test_groups_must_partition(self):
        with pytest.raises(ConfigError, match="partition"):
            ExperimentPlan(
                strategies=("joint",), groups=((0,), (0, 1)), replications=1, seeds=(1,)
            )
        with pytest.raises(ConfigError, match="one seed per replicate"):
            ExperimentPlan(strategies=("joint",), groups=((0,),), replications=2, seeds=(1,))

    def test_plan_from_config_defaults_to_singletons(self):
        plan = plan_from_config(ExperimentConfig(replications=3), n_targets=2, base_seed=9)
        assert plan.groups == ((0,), (1,))
        assert len(plan.seeds) == 3
        # derived seeds are reproducible
        again = plan_from_config(ExperimentConfig(replications=3), n_targets=2, base_seed=9)
        assert plan.seeds == again.seeds


class TestRun:
    def test_bookkeeping_one_target(self):
        config = lg_config(targets=(TargetSpec("coordinate", index=0),))
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=3), 1, config.seed
        )
        report = run_experiment(plan, config)
        assert len(report.rows) == 3
        assert not report.failures
        assert all(r.target == "theta_0" and r.p_prime == 1 for r in report.rows)
        table = report.error_by_p_prime()
        assert table[("joint", 1)]["n"] == 3
        # oracle: hand-derived conditioning mean 0.8 for coordinate 0
        assert all(r.oracle_value == pytest.approx(0.8) for r in report.rows)

    def test_separate_singletons_reproduce_joint_single_target_bitwise(self):
        single = lg_config(targets=(TargetSpec("coordinate", index=0),))
        plan_joint = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=2), 1, single.seed
        )
        joint_report = run_experiment(plan_joint, single)

        both = lg_config()
        plan_separate = plan_from_config(
            ExperimentConfig(strategies=("separate",), replications=2), 2, both.seed
        )
        separate_report = run_experiment(plan_separate, both)

        joint_rows = {r.replicate: r for r in joint_report.rows}
        sep_rows = {
            r.replicate: r for r in separate_report.rows if r.target == "theta_0"
        }
        assert joint_rows.keys() == sep_rows.keys()
        for rep, jr in joint_rows.items():
            sr = sep_rows[rep]
            assert sr.estimate == jr.estimate  # bit-for-bit
            assert sr.epsilon == jr.epsilon
            assert sr.n_accepted == jr.n_accepted

    def test_joint_strategy_handles_all_targets_at_once(self):
        config = lg_config()
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=2), 2, config.seed
        )
        report = run_experiment(plan, config)
        assert len(report.rows) == 4  # 2 replicates x 2 targets
        assert all(r.summary_dim == 2 and r.p_prime == 2 for r in report.rows)

    def test_failures_recorded_not_fatal(self):
        # construct batch far too small for the basis dimension
        config = lg_config(construct_m=3, pilot_m=1000)
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=2), 2, config.seed
        )
        report = run_experiment(plan, config)
        assert len(report.failures) == 2
        assert not report.rows
        assert "draws" in report.failures[0].message

    def test_programming_errors_propagate(self, monkeypatch):
        from semiabc import experiment

        def broken(*args):
            raise TypeError("a bug, not a data point")

        monkeypatch.setattr(experiment, "_run_one", broken)
        config = lg_config()
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=1), 2, config.seed
        )
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(plan, config)

    def test_cross_strategy_discrepancy_table(self):
        config = lg_config()
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint", "separate"), replications=2), 2, config.seed
        )
        report = run_experiment(plan, config)
        table = report.cross_strategy_discrepancy()
        assert set(table) == {"theta_0", "theta_1"}
        assert all(v["n"] == 2 for v in table.values())

    def test_threads_do_not_change_results(self):
        config = lg_config()
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=2), 2, config.seed
        )
        serial = run_experiment(plan, config, threads=1)
        threaded = run_experiment(plan, config, threads=4)
        est_a = [(r.strategy, r.replicate, r.target, r.estimate) for r in serial.rows]
        est_b = [(r.strategy, r.replicate, r.target, r.estimate) for r in threaded.rows]
        assert sorted(est_a) == sorted(est_b)

    def test_report_serialization(self):
        import json

        config = lg_config(targets=(TargetSpec("coordinate", index=0),))
        plan = plan_from_config(
            ExperimentConfig(strategies=("joint",), replications=1), 1, config.seed
        )
        report = run_experiment(plan, config)
        payload = report.to_dict()
        assert json.dumps(payload)  # JSON-serializable
        assert payload["rows"][0]["target"] == "theta_0"
