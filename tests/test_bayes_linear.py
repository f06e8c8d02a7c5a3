import numpy as np
import pytest

from semiabc.engine import SimulationBatch
from semiabc.models import linear_gaussian_fixture
from semiabc.regression import fit_linear

from bayes_linear import (
    BayesLinearModel,
    adjusted_expectation,
    adjusted_variance,
    criterion_value,
    fit_bayes_linear,
    from_moments,
)


def make_batch(thetas, stats):
    return SimulationBatch(
        thetas=np.asarray(thetas, dtype=np.float64),
        stats=np.asarray(stats, dtype=np.float64),
        seed=0,
        model_name="test",
        prior_hash="none",
    )


class TestFit:
    def test_perfect_statistic_gives_identity(self):
        rng = np.random.default_rng(0)
        thetas = rng.standard_normal((10_000, 2))
        model = fit_bayes_linear(make_batch(thetas, thetas))
        np.testing.assert_allclose(model.coef, np.eye(2), atol=1e-6)
        np.testing.assert_allclose(model.intercept, 0.0, atol=1e-6)

    def test_half_signal_closed_form(self):
        # theta ~ N(0,1), s = theta + e with e ~ N(0,1): Cov/Var = 1/2
        rng = np.random.default_rng(1)
        thetas = rng.standard_normal((100_000, 1))
        stats = thetas + rng.standard_normal((100_000, 1))
        model = fit_bayes_linear(make_batch(thetas, stats))
        assert abs(model.coef[0, 0] - 0.5) < 0.02

    def test_independent_statistic(self):
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal((20_000, 1)) + 3.0
        stats = rng.standard_normal((20_000, 1))
        model = fit_bayes_linear(make_batch(thetas, stats))
        assert abs(model.coef[0, 0]) < 0.02
        assert model.intercept[0] == pytest.approx(float(thetas.mean()), abs=0.05)

    def test_insufficient_draws(self):
        with pytest.raises(ValueError, match="insufficient draws for 2 statistics"):
            fit_bayes_linear(make_batch(np.zeros((3, 1)), np.ones((3, 2))))

    def test_duplicated_statistic_records_jitter(self):
        rng = np.random.default_rng(4)
        thetas = rng.standard_normal((2_000, 1))
        s = thetas + rng.standard_normal((2_000, 1))
        model = fit_bayes_linear(make_batch(thetas, np.hstack([s, s])))
        assert model.jitter > 0.0
        single = fit_bayes_linear(make_batch(thetas, s))
        assert single.jitter == 0.0
        assert model.coef.sum() == pytest.approx(single.coef[0, 0], rel=1e-6)

    def test_well_conditioned_fit_records_no_jitter(self):
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((2_000, 2))
        stats = thetas + rng.standard_normal((2_000, 2))
        assert fit_bayes_linear(make_batch(thetas, stats)).jitter == 0.0

    def test_model_invariant_enforced(self):
        with pytest.raises(ValueError, match="intercept"):
            BayesLinearModel(
                intercept=np.array([1.0]),
                coef=np.array([[0.0]]),
                mean_theta=np.array([0.0]),
                mean_s=np.array([0.0]),
                var_s=np.array([[1.0]]),
                cov_theta_s=np.array([[0.0]]),
                var_theta=np.array([[1.0]]),
            )


class TestAdjustedExpectation:
    def test_zero_innovation_returns_prior_mean(self):
        rng = np.random.default_rng(3)
        thetas = rng.standard_normal((500, 2))
        stats = rng.standard_normal((500, 3))
        model = fit_bayes_linear(make_batch(thetas, stats))
        np.testing.assert_allclose(
            adjusted_expectation(model, model.mean_s), model.mean_theta, rtol=1e-12
        )

    def test_uninformative_statistic(self):
        model = from_moments(
            mean_theta=[1.5], mean_s=[0.0], var_theta=[[2.0]],
            var_s=[[1.0]], cov_theta_s=[[0.0]],
        )
        for s in (-5.0, 0.0, 7.0):
            assert adjusted_expectation(model, [s])[0] == pytest.approx(1.5)

    def test_conjugate_normal_value(self):
        # E(theta)=0, Var(s)=2, Cov=1, E(s)=0, s=2 -> 1.0
        model = from_moments(
            mean_theta=[0.0], mean_s=[0.0], var_theta=[[1.0]],
            var_s=[[2.0]], cov_theta_s=[[1.0]],
        )
        assert adjusted_expectation(model, [2.0])[0] == pytest.approx(1.0)

    def test_dimension_check(self):
        model = from_moments([0.0], [0.0], [[1.0]], [[1.0]], [[0.5]])
        with pytest.raises(ValueError, match="length"):
            adjusted_expectation(model, [1.0, 2.0])


class TestCriterion:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(4)
        stats = rng.standard_normal((100, 2))
        a = np.array([0.5, -1.0])
        b = np.array([[1.0, 2.0], [0.0, 1.0]])
        thetas = a + stats @ b.T
        assert criterion_value(a, b, make_batch(thetas, stats)) == pytest.approx(0.0, abs=1e-24)

    def test_zero_estimator_reduces_to_second_moment(self):
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((200, 2))
        stats = rng.standard_normal((200, 1))
        batch = make_batch(thetas, stats)
        value = criterion_value([0.0, 0.0], np.zeros((2, 1)), batch)
        assert value == pytest.approx(float(np.mean(np.sum(thetas**2, axis=1))))

    def test_fitted_beats_random_perturbations(self):
        rng = np.random.default_rng(6)
        thetas = rng.standard_normal((400, 2))
        stats = 0.5 * thetas[:, [0, 0, 1]] + rng.standard_normal((400, 3))
        batch = make_batch(thetas, stats)
        model = fit_bayes_linear(batch)
        best = criterion_value(model.intercept, model.coef, batch)
        for _ in range(100):
            da = 0.1 * rng.standard_normal(2)
            db = 0.1 * rng.standard_normal((2, 3))
            assert best < criterion_value(model.intercept + da, model.coef + db, batch)


class TestAdjustedVariance:
    def test_uninformative_leaves_prior_variance(self):
        model = from_moments([0.0], [0.0], [[3.0]], [[1.0]], [[0.0]])
        np.testing.assert_allclose(adjusted_variance(model), [[3.0]])

    def test_perfect_statistic_resolves_everything(self):
        rng = np.random.default_rng(7)
        thetas = rng.standard_normal((5000, 2))
        model = fit_bayes_linear(make_batch(thetas, thetas))
        assert np.max(np.abs(adjusted_variance(model))) < 1e-10

    def test_scalar_formula(self):
        model = from_moments([0.0], [0.0], [[1.0]], [[2.0]], [[1.0]])
        assert adjusted_variance(model)[0, 0] == pytest.approx(0.5)

    def test_inconsistent_moments_warn(self):
        model = from_moments([0.0], [0.0], [[0.1]], [[1.0]], [[1.0]])
        with pytest.warns(UserWarning, match="inconsistent"):
            adjusted_variance(model)


class TestEquivalences:
    def test_ols_equivalence(self):
        rng = np.random.default_rng(8)
        thetas = rng.standard_normal((500, 2))
        stats = thetas @ rng.standard_normal((2, 4)) + rng.standard_normal((500, 4))
        batch = make_batch(thetas, stats)
        model = fit_bayes_linear(batch)
        ols = fit_linear(batch.stats, batch.thetas)
        assert np.max(np.abs(ols.coef - model.coef)) < 1e-8
        assert np.max(np.abs(ols.intercept - model.intercept)) < 1e-8
        # adjusted expectation equals the OLS prediction
        query = rng.standard_normal(4)
        np.testing.assert_allclose(
            adjusted_expectation(model, query),
            ols.intercept + ols.coef @ query,
            atol=1e-8,
        )

    def test_affine_invariance_of_statistics(self):
        rng = np.random.default_rng(9)
        thetas = rng.standard_normal((500, 2))
        stats = thetas @ rng.standard_normal((2, 3)) + rng.standard_normal((500, 3))
        batch = make_batch(thetas, stats)
        model = fit_bayes_linear(batch)

        # well-conditioned invertible transform plus shift
        t = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        assert np.linalg.cond(t) < 1e3
        shift = rng.standard_normal(3)
        transformed = make_batch(thetas, stats @ t.T + shift)
        model_t = fit_bayes_linear(transformed)

        query = rng.standard_normal(3)
        np.testing.assert_allclose(
            adjusted_expectation(model_t, t @ query + shift),
            adjusted_expectation(model, query),
            atol=1e-6,
        )
        v1 = criterion_value(model.intercept, model.coef, batch)
        v2 = criterion_value(model_t.intercept, model_t.coef, transformed)
        assert v2 == pytest.approx(v1, rel=1e-8)

    def test_exact_under_joint_gaussianity(self):
        fixture = linear_gaussian_fixture(
            p=2, d=2, coeffs=[[1.0, 0.0], [1.0, 1.0]], noise_sd=1.0, s_obs=[1.0, 2.0]
        )
        model = from_moments(**fixture.oracle.moments)
        expectation = adjusted_expectation(model, fixture.s_obs)
        np.testing.assert_allclose(expectation, fixture.oracle.mean, atol=1e-8)

