import numpy as np
import pytest
from scipy.stats import norm

import semiabc.marginal
import semiabc.semiauto
from semiabc.engine import WeightedPosterior
from semiabc.marginal import MarginalEstimate, estimate_marginal, marginal_remap
from semiabc.runconfig import RunConfig, TargetSpec
from semiabc.semiauto import run_semiauto


def uniform_posterior(thetas):
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim == 1:
        thetas = thetas[:, None]
    n = thetas.shape[0]
    return WeightedPosterior(
        thetas=thetas,
        epsilon=1.0,
        accepted_indices=np.arange(n),
    )


def ks_distance(sample, cdf):
    x = np.sort(sample)
    n = len(x)
    f = cdf(x)
    return float(np.max(np.maximum(f - np.arange(n) / n, (np.arange(n) + 1) / n - f)))


class TestRemap:
    def test_rank_bookkeeping_by_hand(self):
        joint = uniform_posterior([3.0, 1.0, 2.0])
        marginal = MarginalEstimate(coordinate=0, samples=np.array([10.0, 20.0, 30.0]))
        out = marginal_remap(joint, [marginal])
        np.testing.assert_array_equal(out.thetas[:, 0], [30.0, 10.0, 20.0])

    def test_self_remap_is_identity_bitwise(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(101)
        joint = uniform_posterior(col)
        out = marginal_remap(joint, [MarginalEstimate(0, col.copy())])
        np.testing.assert_array_equal(out.thetas[:, 0], col)

    def test_sorted_column_equals_selected_quantiles_bitwise(self):
        # independent type-7 oracle with exact rational index positions
        from fractions import Fraction
        from math import floor

        rng = np.random.default_rng(1)
        joint = uniform_posterior(rng.standard_normal((50, 1)))
        samples = rng.standard_normal(200)
        out = marginal_remap(joint, [MarginalEstimate(0, samples)])

        srt = np.sort(samples)
        expected = np.empty(50)
        for r in range(50):
            h = Fraction(r * (len(srt) - 1), 49)
            lo = floor(h)
            frac = float(h - lo)
            if frac == 0.0:
                expected[r] = srt[lo]
            else:
                expected[r] = srt[lo] + frac * (srt[lo + 1] - srt[lo])
        np.testing.assert_array_equal(np.sort(out.thetas[:, 0]), expected)

    def test_rank_matrix_preserved_exactly(self):
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal((80, 3))
        joint = uniform_posterior(thetas)
        marginals = [
            MarginalEstimate(i, rng.standard_normal(200)) for i in range(3)
        ]
        out = marginal_remap(joint, marginals)
        for i in range(3):
            before = np.argsort(np.argsort(thetas[:, i], kind="stable"), kind="stable")
            after = np.argsort(np.argsort(out.thetas[:, i], kind="stable"), kind="stable")
            np.testing.assert_array_equal(before, after)

    def test_spearman_matrix_preserved(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((60, 2))
        thetas = np.column_stack([base[:, 0], 0.7 * base[:, 0] + base[:, 1]])
        joint = uniform_posterior(thetas)
        marginals = [MarginalEstimate(i, rng.standard_normal(100)) for i in range(2)]
        out = marginal_remap(joint, marginals)

        def spearman(m):
            ranks = np.argsort(np.argsort(m, axis=0, kind="stable"), axis=0, kind="stable")
            return np.corrcoef(ranks, rowvar=False)

        np.testing.assert_array_equal(spearman(joint.thetas), spearman(out.thetas))

    def test_coverage_validation(self):
        rng = np.random.default_rng(5)
        joint = uniform_posterior(rng.standard_normal((30, 2)))
        with pytest.raises(ValueError, match=r"\[1\] are not covered"):
            marginal_remap(joint, [MarginalEstimate(0, rng.standard_normal(50))])

    def test_marginal_of_a_coordinate_the_joint_lacks_is_named(self):
        rng = np.random.default_rng(6)
        joint = uniform_posterior(rng.standard_normal((30, 1)))
        with pytest.raises(ValueError, match=r"coordinates \[2\] are not in the 1-parameter"):
            marginal_remap(joint, [MarginalEstimate(2, rng.standard_normal(50))])

    def test_marginal_smaller_than_joint_rejected(self):
        rng = np.random.default_rng(7)
        joint = uniform_posterior(rng.standard_normal((30, 1)))
        with pytest.raises(ValueError, match="at least as many"):
            marginal_remap(joint, [MarginalEstimate(0, rng.standard_normal(10))])


def marginal_config(**over):
    base = dict(
        model="linear_gaussian",
        model_params={
            "p": 2,
            "d": 2,
            "coeffs": [[1.0, 0.0], [0.0, 0.0]],
            "noise_sd": 1.0,
            "s_obs": [1.0, 0.5],
        },
        pilot_m=2000,
        pilot_accept_fraction=0.1,
        construct_m=3000,
        main_m=20_000,
        main_accept_fraction=0.05,
        targets=(TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)),
        seed=23,
    )
    base.update(over)
    return RunConfig(**base)


def gaussian_config():
    return RunConfig(
        model="gaussian_location",
        model_params={"n_noise_stats": 1},
        pilot_m=2000,
        pilot_accept_fraction=0.1,
        construct_m=3000,
        main_m=20_000,
        main_accept_fraction=0.02,
        targets=(TargetSpec("coordinate", index=0),),
        regression_adjust=True,
        seed=31,
    )


class TestEstimateMarginal:
    def test_gaussian_fixture_marginal_mean(self):
        [marginal] = estimate_marginal(gaussian_config())
        n = marginal.n
        mc_sd = marginal.samples.std(ddof=1) / np.sqrt(n)
        assert abs(marginal.samples.mean() - 0.8) < 3 * mc_sd

    def test_flat_coordinate_recovers_prior_margin(self):
        # theta_2 never enters the statistics: its marginal is the prior
        config = marginal_config(main_m=100_000, main_accept_fraction=0.1)
        marginal = estimate_marginal(config)[1]
        assert marginal.coordinate == 1
        assert marginal.n == 10_000
        assert ks_distance(marginal.samples, norm.cdf) < 0.05

    def test_fixed_seed_reproducible(self):
        config = marginal_config(main_m=5000)
        a = estimate_marginal(config)
        b = estimate_marginal(config)
        assert [m.coordinate for m in a] == [m.coordinate for m in b] == [0, 1]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_one_parameter_marginal_is_the_joint_posterior_bitwise(self):
        # the marginal run reuses the joint run's stages, and with one
        # parameter its one-row projector is the joint projector
        config = gaussian_config()
        [marginal] = estimate_marginal(config)
        np.testing.assert_array_equal(
            marginal.samples, run_semiauto(config).posterior.thetas[:, 0]
        )

    def test_stages_run_once_for_every_coordinate(self, monkeypatch):
        calls = {"shared_stages": 0, "stage_construct": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counting(semiabc.marginal, "shared_stages")
        counting(semiabc.semiauto, "stage_construct")
        marginals = estimate_marginal(marginal_config(main_m=5000))
        assert [m.coordinate for m in marginals] == [0, 1]
        assert calls == {"shared_stages": 1, "stage_construct": 1}
