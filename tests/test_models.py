import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semiabc.engine import CHUNK, ndtr
from semiabc.errors import ConfigError
from semiabc.models import (
    GPD_OBS_SEED,
    GPD_QUANTILE_LADDER,
    GPD_SMALL_XI,
    GpdGridOracle,
    gaussian_location_fixture,
    gpd_fixture,
    gpd_logpdf,
    gpd_quantile,
    linear_gaussian_fixture,
    make_fixture,
    _SIM_BLOCK_BYTES,
    _gpd_stat_matrix,
)
from semiabc.runconfig import TargetSpec


class TestGaussianLocationFixture:
    def test_conjugate_oracle_value(self):
        fixture = gaussian_location_fixture(0.0, 1.0, 1.0, 4, 1.0, 0)
        assert fixture.oracle.post_mean == pytest.approx(0.8)

    def test_symmetry_gives_zero(self):
        fixture = gaussian_location_fixture(0.0, 1.0, 1.0, 4, 0.0, 0)
        assert fixture.oracle.post_mean == pytest.approx(0.0)

    def test_flat_prior_limit(self):
        fixture = gaussian_location_fixture(0.0, 1e6, 1.0, 4, 1.0, 0)
        assert abs(fixture.oracle.post_mean - 1.0) < 1e-6

    def test_observed_statistics_match_declared_map(self):
        fixture = gaussian_location_fixture(0.0, 1.0, 2.0, 6, 1.5, 3)
        assert fixture.s_obs.shape == (5,)
        assert fixture.s_obs[0] == pytest.approx(1.5)
        assert fixture.s_obs[1] == pytest.approx(2.0)
        np.testing.assert_array_equal(fixture.s_obs[2:], 0.0)

    def test_simulator_shapes_and_informativeness(self):
        fixture = gaussian_location_fixture(n_noise_stats=2)
        rng = np.random.default_rng(0)
        thetas = np.full((5000, 1), 1.3)
        stats = fixture.simulator.simulate(thetas, rng)
        assert stats.shape == (5000, 4)
        assert stats[:, 0].mean() == pytest.approx(1.3, abs=0.05)
        assert stats[:, 2].mean() == pytest.approx(0.0, abs=0.05)

    def test_oracle_quantiles(self):
        fixture = gaussian_location_fixture(0.0, 1.0, 1.0, 4, 1.0, 0)
        # the posterior is normal with mean 0.8, so 0.8 is its median
        oracle = fixture.oracle
        assert ndtr((0.8 - oracle.post_mean) / oracle.post_sd) == pytest.approx(0.5)


class TestLinearGaussianFixture:
    def test_frozen_conditioning_oracle(self):
        # hand computation: Sigma_s=[[2,1],[1,3]], K=[[0.4,0.2],[-0.2,0.4]],
        # posterior mean = K @ (1,2) = (0.8, 0.6)
        fixture = linear_gaussian_fixture(
            p=2, d=2, coeffs=[[1.0, 0.0], [1.0, 1.0]], noise_sd=1.0, s_obs=[1.0, 2.0]
        )
        np.testing.assert_allclose(fixture.oracle.mean, [0.8, 0.6], atol=1e-12)

    def test_identity_map_small_noise_recovers_observation(self):
        fixture = linear_gaussian_fixture(
            p=2, d=2, coeffs=[[1.0, 0.0], [0.0, 1.0]], noise_sd=1e-6, s_obs=[0.3, -0.7]
        )
        np.testing.assert_allclose(fixture.oracle.mean, [0.3, -0.7], atol=1e-6)

    def test_zero_map_returns_prior(self):
        fixture = linear_gaussian_fixture(
            p=2, d=2, coeffs=[[0.0, 0.0], [0.0, 0.0]], noise_sd=1.0,
            prior_mean=[0.5, -0.5], s_obs=[1.0, 1.0],
        )
        np.testing.assert_allclose(fixture.oracle.mean, [0.5, -0.5])
        np.testing.assert_allclose(fixture.oracle.cov, np.eye(2))

    def test_analytic_moments_consistent_with_simulation(self):
        from semiabc.engine import simulate_batch

        fixture = linear_gaussian_fixture(
            p=2, d=3, coeffs=[[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]], noise_sd=0.5
        )
        moments = fixture.oracle.moments
        batch = simulate_batch(fixture.prior, fixture.simulator, 50_000, seed=1)
        np.testing.assert_allclose(batch.stats.mean(axis=0), moments["mean_s"], atol=0.02)
        emp = np.cov(np.hstack([batch.thetas, batch.stats]), rowvar=False)
        np.testing.assert_allclose(emp[:2, 2:], moments["cov_theta_s"], atol=0.03)
        np.testing.assert_allclose(emp[2:, 2:], moments["var_s"], atol=0.05)


class TestGpdMath:
    def test_quantile_closed_form(self):
        assert gpd_quantile(0.99, 1.0, 0.5) == pytest.approx(18.0)

    def test_quantile_exponential_limit(self):
        assert gpd_quantile(0.99, 1.0, 1e-9) == pytest.approx(-np.log(0.01), rel=1e-9)
        assert gpd_quantile(0.99, 1.0, 1e-9) == pytest.approx(4.60517, abs=1e-5)

    def test_branch_consistency_at_threshold(self):
        # exact two-branch gap at the threshold is xi*|log(1-u)|/2, i.e.
        # 2.31e-6 relative at u=0.99; assert the provable bound
        for u in (0.5, 0.9, 0.99):
            bound = max(GPD_SMALL_XI * abs(np.log1p(-u)) / 2 * 1.1, 1e-12)
            for xi in (GPD_SMALL_XI, -GPD_SMALL_XI):
                log1mu = np.log1p(-u)
                general = (1.0 / xi) * np.expm1(-xi * log1mu)
                limit = -log1mu
                assert abs(general - limit) / abs(limit) < bound

    def test_logpdf_integrates_to_one(self):
        # trapezoid over a dense support grid
        for sigma, xi in ((1.0, 0.3), (2.0, -0.3), (0.5, 0.0)):
            hi = gpd_quantile(1 - 1e-9, sigma, xi) if xi >= 0 else -sigma / xi * (1 - 1e-12)
            x = np.linspace(0.0, min(hi, 2000.0), 400_001)
            pdf = np.exp(gpd_logpdf(x, sigma, xi))
            assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=2e-3)

    def test_mean_formula_and_simulation(self):
        rng = np.random.default_rng(2)
        sigma, xi = 1.0, 0.2
        sample = gpd_quantile(rng.random(100_000), sigma, xi)
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(sample.mean() - sigma / (1.0 - xi)) < 3 * se  # the GPD mean for xi < 1

    def test_support_enforced(self):
        assert gpd_logpdf(10.0, 1.0, -0.3) == -np.inf  # beyond upper endpoint
        assert gpd_logpdf(-0.1, 1.0, 0.3) == -np.inf


def five_array_gpd_quantile(u, sigma, xi):
    """The GPD quantile as both branches in full, then a select: the
    formula `gpd_quantile` computes in place."""
    u, sigma, xi = (np.asarray(a, dtype=np.float64) for a in (u, sigma, xi))
    small = np.abs(xi) < GPD_SMALL_XI
    xi_safe = np.where(small, 1.0, xi)
    log1mu = np.log1p(-u)
    general = (sigma / xi_safe) * np.expm1(-xi_safe * log1mu)
    limit = -sigma * log1mu
    return np.where(small, limit, general)


@st.composite
def quantile_chunks(draw):
    """A simulation chunk: (rows, k) uniforms with u = 0 mixed in, and a
    (sigma, xi) per row with xi on both sides of GPD_SMALL_XI."""
    rows, k = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    u = draw(arrays(np.float64, (rows, k), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))))
    sigma = draw(arrays(np.float64, (rows, 1), elements=st.floats(1e-3, 1e3)))
    xi = draw(arrays(np.float64, (rows, 1), elements=st.one_of(
        st.sampled_from([0.0, 5e-7, -5e-7, GPD_SMALL_XI]), st.floats(-0.5, 1.0))))
    return u, sigma, xi


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestGpdQuantileInPlace:
    @settings(max_examples=150, deadline=None)
    @given(quantile_chunks())
    @example((np.array([[0.0, 0.5, 0.99]] * 3), np.array([[1.0], [2.0], [0.5]]),
              np.array([[0.0], [5e-7], [0.2]])))
    def test_chunk_equals_five_array_formula_bitwise(self, chunk):
        expected = five_array_gpd_quantile(*chunk)
        got = gpd_quantile(*chunk)
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("args", [
        (0.99, 1.0, 0.5),
        (0.99, 1.0, 0.0),
        (np.float64(0.0), np.array(2.0), 5e-7),
        (np.linspace(0.0, 0.9, 7), 1.5, -0.3),
        (0.9, np.array([0.5, 1.0, 2.0]), np.array([0.0, 0.2, 5e-7])),
    ], ids=["scalars", "scalar_limit", "zero_d", "u_vector", "grid_points"])
    def test_scalar_and_broadcast_inputs(self, args):
        expected = five_array_gpd_quantile(*args)
        got = gpd_quantile(*args)
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected))


def gpd_chunk_thetas(seed: int, small_xi: bool) -> np.ndarray:
    """CHUNK (sigma, xi) rows; with `small_xi`, every 97th row from the
    first, second and third on has xi = 0, 5e-7 and -5e-7, the
    exponential-limit branch of gpd_quantile."""
    rng = np.random.default_rng(seed)
    thetas = np.column_stack([np.exp(rng.standard_normal(CHUNK)), rng.uniform(-0.4, 0.9, CHUNK)])
    if small_xi:
        thetas[::97, 1] = 0.0
        thetas[1::97, 1] = 5e-7
        thetas[2::97, 1] = -5e-7
    return thetas


class TestGpdFixture:
    # SHA-256 of the statistics of one CHUNK-row block, then s_obs, then
    # observed_data, taken before the statistics sorted their samples in
    # place. Every GPD artifact holds these bits: never regenerate the
    # digest from changed code.
    PINNED_DIGEST = "2495ab259821638e744bd277c026658a597eac93756f5e76b707780d120f210f"

    def test_simulate_bits_are_pinned(self):
        fixture = gpd_fixture()
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((1802, 3))))
        stats = fixture.simulator.simulate(gpd_chunk_thetas(1801, small_xi=True), rng)
        assert stats.shape == (CHUNK, 13)
        digest = hashlib.sha256()
        for part in (stats, fixture.s_obs, fixture.observed_data):
            digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        assert digest.hexdigest() == self.PINNED_DIGEST

    # SHA-256 of the grid oracle's weights, and of gpd_logpdf on a grid
    # with x < 0, x = 0, points beyond the upper endpoint of xi < 0 and xi
    # on both sides of GPD_SMALL_XI. Both were taken before gpd_logpdf
    # stopped guarding its log and building the small-xi limit for every
    # point: never regenerate either digest from changed code.
    PINNED_WEIGHTS_DIGEST = "23d93f3171c20f98c9c875f27abe50b964c3e982ebf6d58fd8ad6173101cbd36"
    PINNED_LOGPDF_DIGEST = "91c94971ef741d4a3e2c3cc1313d37264511ce1b9da8e5a05c48c26d4ea1d4a1"

    def test_oracle_weights_are_pinned(self):
        weights = np.ascontiguousarray(gpd_fixture().oracle.weights, dtype=np.float64)
        assert hashlib.sha256(weights.tobytes()).hexdigest() == self.PINNED_WEIGHTS_DIGEST

    def test_logpdf_bits_are_pinned(self):
        x = np.linspace(-1.0, 12.0, 53)[:, None, None]
        sigma = np.array([0.5, 1.0, 2.5])[None, :, None]
        xi = np.array([-0.5, -0.2, -2e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 2e-6, 0.3])
        out = np.ascontiguousarray(gpd_logpdf(x, sigma, xi[None, None, :]))
        assert out.shape == (53, 3, 10) and np.isneginf(out).sum() == 303
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.PINNED_LOGPDF_DIGEST

    @pytest.mark.parametrize("small_xi, arrays", [(False, 2.5), (True, 3.5)],
                             ids=["general", "small_xi"])
    def test_simulate_holds_block_arrays(self, small_xi, arrays):
        # a chunk runs in row blocks; the uniforms are freed before the
        # statistics, the samples are sorted in place and freed before the
        # next block, so about 2.2 block sample arrays (3.2 with the
        # exponential-limit array) are alive next to the (CHUNK, 13) output
        n = 100
        fixture = gpd_fixture(n_exceedances=n)
        rows = _SIM_BLOCK_BYTES // (8 * n)
        thetas = gpd_chunk_thetas(18, small_xi=small_xi)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((18, 3))))
        tracemalloc.start()
        try:
            fixture.simulator.simulate(thetas, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays * rows * n * 8 + CHUNK * 13 * 8

    @pytest.mark.parametrize("n", [3, 100, 1000])
    def test_blocks_equal_one_shot_chunk_bitwise(self, n):
        # `random` fills row-major from one stream and every statistic is
        # per row, so the blocks give a one-shot chunk's bits; at n = 1000
        # a block has 65 rows, at n = 3 it has more than CHUNK
        fixture = gpd_fixture(n_exceedances=n)
        block = max(1, _SIM_BLOCK_BYTES // (8 * n))
        for rows in (1, block - 1, block, block + 1, 2 * block + 1, CHUNK):
            rng = np.random.default_rng(rows)
            thetas = np.column_stack([np.exp(rng.standard_normal(rows)),
                                      rng.uniform(-0.4, 0.9, rows)])
            # exponential-limit rows on either side of each block edge
            thetas[block - 1::block, 1] = 0.0
            thetas[block::block, 1] = -5e-7
            seed = np.random.SeedSequence((rows, n))
            got = fixture.simulator.simulate(thetas, np.random.Generator(np.random.Philox(seed)))
            rng = np.random.Generator(np.random.Philox(seed))
            expected = _gpd_stat_matrix(
                gpd_quantile(rng.random((rows, n)), thetas[:, [0]], thetas[:, [1]]))
            assert got.shape == (rows, 13)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_observed_data_keeps_its_draw_order(self):
        fixture = gpd_fixture(n_exceedances=50)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((GPD_OBS_SEED, 7))))
        drawn = gpd_quantile(rng.random(50), 1.0, 0.2)
        assert np.array_equal(fixture.observed_data, drawn)
        assert np.any(np.diff(fixture.observed_data) < 0)

    def test_fixture_shapes(self):
        fixture = gpd_fixture(n_exceedances=50)
        assert fixture.simulator.stat_dim == 13
        assert fixture.s_obs.shape == (13,)
        assert fixture.observed_data.shape == (50,)

    def test_fixture_deterministic(self):
        a = gpd_fixture(n_exceedances=50)
        b = gpd_fixture(n_exceedances=50)
        np.testing.assert_array_equal(a.observed_data, b.observed_data)

    def test_grid_oracle_near_truth(self):
        fixture = gpd_fixture(sigma_true=1.0, xi_true=0.2, n_exceedances=100)
        sigma_mean = fixture.oracle.target_mean(TargetSpec("coordinate", index=0))
        xi_mean = fixture.oracle.target_mean(TargetSpec("coordinate", index=1))
        assert abs(sigma_mean - 1.0) < 0.5
        assert abs(xi_mean - 0.2) < 0.3

    def test_grid_refinement_self_consistency(self):
        fixture = gpd_fixture(sigma_true=1.0, xi_true=0.2, n_exceedances=50)
        coarse = fixture.oracle
        fine = GpdGridOracle(fixture.observed_data, n_sigma=2000, n_xi=2000)
        for tau in (0.5, 0.9, 0.99):
            target = TargetSpec("gpd_quantile", tau=tau)
            a = coarse.target_mean(target)
            b = fine.target_mean(target)
            assert abs(a - b) / abs(b) < 0.005

    def test_grid_posterior_is_computed_on_first_use(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("grid posterior computed")

        monkeypatch.setattr("semiabc.models.gpd_logpdf", refuse)
        fixture = make_fixture("gpd")
        assert fixture.oracle.sigma_grid.shape == (200,)
        with pytest.raises(RuntimeError, match="grid posterior computed"):
            fixture.oracle.target_mean(TargetSpec("gpd_quantile", tau=0.5))

    def test_oracle_quantile_target_consistency(self):
        # posterior mean of the median functional should sit near the
        # median of the observed data for a well-specified model
        fixture = gpd_fixture(sigma_true=1.0, xi_true=0.2, n_exceedances=100)
        q50 = fixture.oracle.target_mean(TargetSpec("gpd_quantile", tau=0.5))
        assert abs(q50 - np.median(fixture.observed_data)) < 0.3


@st.composite
def sample_blocks(draw):
    """(rows, n) sample blocks, n in [3, 300]; half of them draw from four
    values only, so most order statistics tie."""
    n = draw(st.integers(3, 300))
    rows = draw(st.integers(1, 4))
    elements = draw(st.sampled_from([
        st.floats(-1e6, 1e6, allow_nan=False),
        st.sampled_from([0.0, 0.1, 1.0, 7.25]),
    ]))
    return draw(arrays(np.float64, (rows, n), elements=elements))


class TestGpdStatistics:
    @settings(max_examples=80, deadline=None)
    @given(sample_blocks())
    def test_ladder_equals_np_quantile_bitwise(self, block):
        # mean and sd are taken in draw order, before the block is sorted
        # in place
        unsorted = block.copy()
        expected = np.quantile(unsorted, GPD_QUANTILE_LADDER, axis=1, method="linear").T
        stats = _gpd_stat_matrix(block)
        k = len(GPD_QUANTILE_LADDER)
        assert np.array_equal(stats[:, :k], expected)
        assert np.array_equal(bits(stats[:, k]), bits(unsorted.mean(axis=1)))
        assert np.array_equal(bits(stats[:, k + 1]), bits(unsorted.std(axis=1, ddof=1)))
        assert np.array_equal(block, np.sort(unsorted, axis=1))


class TestRegistry:
    def test_make_fixture_by_name(self):
        fixture = make_fixture("gaussian_location", {"xbar_obs": 0.5})
        assert fixture.s_obs[0] == pytest.approx(0.5)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            make_fixture("nope")

    def test_bad_params(self):
        with pytest.raises(ConfigError, match="bad parameters"):
            make_fixture("gaussian_location", {"bogus": 1})


    def test_gaussian_oracles_serve_raw_coordinates_only(self):
        # a GPD quantile of the two coordinates is not the quantile at their
        # posterior means, and the Gaussian oracles have no closed form for it
        fixture = make_fixture("gaussian_location", {"xbar_obs": 5.0})
        assert fixture.oracle.target_mean(TargetSpec("coordinate", index=0)) == 4.0
        quantile = TargetSpec("gpd_quantile", tau=0.9)
        with pytest.raises(NotImplementedError, match="gpd_q0.9"):
            fixture.oracle.target_mean(quantile)
        linear = make_fixture("linear_gaussian")
        assert linear.oracle.target_mean(TargetSpec("coordinate", index=1)) == linear.oracle.mean[1]
        with pytest.raises(NotImplementedError, match="gpd_q0.9"):
            linear.oracle.target_mean(quantile)
