import numpy as np
import pytest

from semiabc.bayes_linear import fit_bayes_linear
from semiabc.engine import SimulationBatch, SimulatorContract
from semiabc.errors import ConfigError, NumericalError
from semiabc.models import ModelFixture, gaussian_location_fixture
from semiabc.regression import BasisSpec
from semiabc.runconfig import RunConfig, TargetSpec
from semiabc.semiauto import (
    SummaryProjector,
    construct_projector,
    coordinate_target,
    custom_target,
    evaluate_targets,
    gpd_quantile_target,
    posterior_target_estimates,
    project,
    project_matrix,
    run_semiauto,
    targets_from_specs,
)


def make_batch(thetas, stats, seed=0):
    return SimulationBatch(
        thetas=np.asarray(thetas, dtype=np.float64),
        stats=np.asarray(stats, dtype=np.float64),
        seed=seed,
        model_name="test",
        prior_hash="none",
    )


class TestTargets:
    def test_coordinate_target_is_identity_column(self):
        rng = np.random.default_rng(0)
        thetas = rng.standard_normal((50, 3))
        values = evaluate_targets(thetas, [coordinate_target(0)])
        np.testing.assert_array_equal(values[:, 0], thetas[:, 0])

    def test_gpd_quantile_closed_form(self):
        thetas = np.array([[1.0, 0.5]])
        values = evaluate_targets(thetas, [gpd_quantile_target(0.99)])
        assert values[0, 0] == pytest.approx(18.0)

    def test_gpd_quantile_small_xi_branch(self):
        thetas = np.array([[1.0, 1e-9]])
        values = evaluate_targets(thetas, [gpd_quantile_target(0.99)])
        assert values[0, 0] == pytest.approx(4.60517, abs=1e-5)

    def test_column_order_matches_target_order(self):
        thetas = np.array([[1.0, 2.0]])
        values = evaluate_targets(
            thetas, [coordinate_target(1), coordinate_target(0)]
        )
        np.testing.assert_array_equal(values, [[2.0, 1.0]])

    def test_non_finite_target_raises_with_name(self):
        thetas = np.array([[-1.0, 0.5]])
        with pytest.raises(NumericalError, match="log_theta_0"):
            evaluate_targets(thetas, [coordinate_target(0, transform="log")])

    def test_specs_to_targets(self):
        targets = targets_from_specs(
            (TargetSpec("coordinate", index=1), TargetSpec("gpd_quantile", tau=0.9)), 2
        )
        assert [t.name for t in targets] == ["theta_1", "gpd_q0.9"]
        with pytest.raises(ConfigError, match="out of range"):
            targets_from_specs((TargetSpec("coordinate", index=5),), 2)


class TestProjector:
    def test_noiseless_identity_recovery(self):
        rng = np.random.default_rng(1)
        thetas = rng.standard_normal((200, 1))
        batch = make_batch(thetas, thetas.copy())
        projector = construct_projector(batch, [coordinate_target(0)], BasisSpec())
        assert projector.out_dim == 1
        assert projector.coef[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert projector.intercept[0] == pytest.approx(0.0, abs=1e-10)
        assert projector.residual_mss[0] < 1e-20

    def test_duplicated_targets_give_identical_summaries(self):
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal((300, 2))
        stats = thetas @ rng.standard_normal((2, 3)) + 0.1 * rng.standard_normal((300, 3))
        batch = make_batch(thetas, stats)
        targets = [coordinate_target(0, name="a"), coordinate_target(0, name="b")]
        projector = construct_projector(batch, targets, BasisSpec())
        out = project_matrix(projector, stats)
        assert np.max(np.abs(out[:, 0] - out[:, 1])) < 1e-8

    def test_output_dimension_equals_target_count(self):
        rng = np.random.default_rng(3)
        thetas = rng.standard_normal((100, 2))
        stats = rng.standard_normal((100, 4))
        targets = [coordinate_target(0), coordinate_target(1),
                   custom_target("sum", lambda t: t.sum(axis=1))]
        projector = construct_projector(batch := make_batch(thetas, stats), targets, BasisSpec())
        assert projector.out_dim == 3
        assert project(projector, stats[0]).shape == (3,)
        with pytest.raises(ValueError, match="one statistic per target"):
            SummaryProjector(
                basis=BasisSpec(),
                intercept=projector.intercept,
                coef=projector.coef,
                target_names=("just_one",),
                condition_number=1.0,
                vifs=projector.vifs,
                residual_mss=projector.residual_mss,
            )

    def test_noise_columns_get_near_zero_weight(self):
        # sufficient mean + 19 pure-noise statistics; coefficients on noise
        # stay tiny and the mean coefficient matches the fit on the
        # sufficient statistic alone
        rng = np.random.default_rng(4)
        m = 100_000
        thetas = rng.standard_normal((m, 1))
        suff = thetas[:, 0] + 0.5 * rng.standard_normal(m)
        noise = rng.standard_normal((m, 19))
        stats = np.column_stack([suff, noise])
        batch = make_batch(thetas, stats)
        projector = construct_projector(batch, [coordinate_target(0)], BasisSpec())

        suff_only = fit_bayes_linear(make_batch(thetas, suff[:, None]))
        assert abs(projector.coef[0, 0] - suff_only.coef[0, 0]) < 0.02
        assert np.max(np.abs(projector.coef[0, 1:])) < 0.05

    def test_project_hand_arithmetic(self):
        projector = SummaryProjector(
            basis=BasisSpec(),
            intercept=np.array([0.0]),
            coef=np.array([[0.5, 0.5]]),
            target_names=("t",),
            condition_number=1.0,
            vifs=np.ones(2),
            residual_mss=np.zeros(1),
        )
        assert project(projector, [2.0, 4.0])[0] == pytest.approx(3.0)

    def test_zero_coefficients_return_intercept(self):
        projector = SummaryProjector(
            basis=BasisSpec(),
            intercept=np.array([1.5, -2.0]),
            coef=np.zeros((2, 3)),
            target_names=("a", "b"),
            condition_number=1.0,
            vifs=np.ones(3),
            residual_mss=np.zeros(2),
        )
        np.testing.assert_array_equal(project(projector, [9.0, 9.0, 9.0]), [1.5, -2.0])

    def test_projected_fit_batch_mean_matches_target_mean(self):
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((500, 2))
        stats = thetas @ rng.standard_normal((2, 4)) + rng.standard_normal((500, 4))
        batch = make_batch(thetas, stats)
        targets = [coordinate_target(0), coordinate_target(1)]
        projector = construct_projector(batch, targets, BasisSpec())
        projected_mean = project_matrix(projector, stats).mean(axis=0)
        target_mean = evaluate_targets(thetas, targets).mean(axis=0)
        np.testing.assert_allclose(projected_mean, target_mean, atol=1e-10)

    def test_json_roundtrip_preserves_projection(self):
        rng = np.random.default_rng(6)
        thetas = rng.standard_normal((100, 1))
        stats = rng.standard_normal((100, 2))
        projector = construct_projector(
            make_batch(thetas, stats), [coordinate_target(0)], BasisSpec("polynomial", degree=2)
        )
        clone = SummaryProjector.from_dict(projector.to_dict())
        s = rng.standard_normal(2)
        np.testing.assert_array_equal(project(clone, s), project(projector, s))
        assert clone.projector_id() == projector.projector_id()


def gaussian_config(**over):
    base = dict(
        model="gaussian_location",
        model_params={"n_noise_stats": 2},
        pilot_m=2000,
        pilot_accept_fraction=0.05,
        construct_m=4000,
        main_m=20_000,
        main_accept_fraction=0.01,
        targets=(TargetSpec("coordinate", index=0),),
        seed=17,
    )
    base.update(over)
    return RunConfig(**base)


class TestPipeline:
    def test_gaussian_posterior_mean_near_oracle(self):
        config = gaussian_config(regression_adjust=True)
        result = run_semiauto(config)
        est = result.estimates["theta_0"]
        assert abs(est["estimate"] - 0.8) < 3 * est["mc_sd"]

    def test_degenerate_pilot_completes(self):
        config = gaussian_config(pilot_accept_fraction=1.0, main_m=5000)
        result = run_semiauto(config)
        # region is then the bounding box of the whole pilot sample
        thetas, region = result.pilot_batch.thetas, result.region
        assert np.all((region.lo <= thetas) & (thetas <= region.hi))
        assert result.posterior.n == 50

    def test_end_to_end_determinism(self):
        config = gaussian_config(main_m=5000)
        a = run_semiauto(config)
        b = run_semiauto(config)
        np.testing.assert_array_equal(a.posterior.thetas, b.posterior.thetas)
        np.testing.assert_array_equal(a.region.lo, b.region.lo)
        assert a.estimates == b.estimates
        c = run_semiauto(config, threads=4)
        np.testing.assert_array_equal(a.posterior.thetas, c.posterior.thetas)

    def test_projected_pilot_statistics_mode(self):
        config = gaussian_config(pilot_statistics="projected", main_m=5000)
        result = run_semiauto(config)
        assert result.posterior.provenance["stage"] == "infer"

    def test_monotone_affine_statistic_invariance(self):
        config = gaussian_config(main_m=5000)
        fixture = gaussian_location_fixture(n_noise_stats=2)
        base = run_semiauto(config, fixture)

        # strictly increasing affine map on statistic column 0
        a, b = 2.5, -3.0
        inner = fixture.simulator.simulate

        def mapped(thetas, rng):
            stats = inner(thetas, rng)
            stats = stats.copy()
            stats[:, 0] = a * stats[:, 0] + b
            return stats

        mapped_fixture = ModelFixture(
            name=fixture.name,
            simulator=SimulatorContract(
                name=fixture.simulator.name,
                param_dim=fixture.simulator.param_dim,
                stat_dim=fixture.simulator.stat_dim,
                simulate=mapped,
            ),
            prior=fixture.prior,
            observed_data=fixture.observed_data,
            s_obs=np.concatenate([[a * fixture.s_obs[0] + b], fixture.s_obs[1:]]),
            oracle=fixture.oracle,
            params=fixture.params,
        )
        transformed = run_semiauto(config, mapped_fixture)
        np.testing.assert_array_equal(
            base.pilot_posterior.accepted_indices,
            transformed.pilot_posterior.accepted_indices,
        )
        np.testing.assert_array_equal(
            base.posterior.accepted_indices, transformed.posterior.accepted_indices
        )

    def test_estimates_report_mc_sd(self):
        config = gaussian_config(main_m=5000)
        result = run_semiauto(config)
        est = result.estimates["theta_0"]
        assert est["mc_sd"] > 0
        # uniform weights: mc sd is sd/sqrt(n)
        targets = targets_from_specs(config.targets, 1)
        redo = posterior_target_estimates(result.posterior, targets)
        assert redo == result.estimates
