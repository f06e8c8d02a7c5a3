import math
import statistics
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from semiabc import engine
from semiabc.engine import (
    CHUNK,
    PriorSpec,
    SimulationBatch,
    SimulatorContract,
    TruncationRegion,
    WeightedPosterior,
    _distance_matrix,
    compute_scales,
    derive_seed,
    lognormal,
    ndtr,
    ndtri,
    normal,
    regression_adjust,
    rejection_abc,
    scales_from_matrix,
    simulate_batch,
    truncation_from_pilot,
    uniform,
    worker_pool,
)
from semiabc.errors import NumericalError
from semiabc.regression import fit_linear


def two_call_simulator(d=3):
    # Uses two separate vectorized draw calls to stress the fixed-chunk
    # padding that keeps draw m's noise independent of the batch size.
    def simulate(thetas, rng):
        a = rng.standard_normal((thetas.shape[0], 2))
        b = rng.random((thetas.shape[0], 1))
        return np.column_stack([thetas[:, [0]] + a[:, [0]], a[:, [1]] * b, b])

    return SimulatorContract(name="two_call", param_dim=1, stat_dim=d, simulate=simulate)


def echo_simulator(p):
    """Statistics are the parameters themselves; consumes no randomness."""
    return SimulatorContract(
        name="echo", param_dim=p, stat_dim=p, simulate=lambda thetas, rng: thetas.copy()
    )


def poisoned_echo_simulator(poison, calls):
    """Echoes theta, with NaN in each row whose theta is in `poison`;
    appends each call's rows to `calls`."""

    def simulate(thetas, rng):
        calls.append(thetas.shape[0])
        stats = thetas.copy()
        stats[np.isin(thetas[:, 0], poison)] = np.nan
        return stats

    return SimulatorContract(name="poisoned", param_dim=1, stat_dim=1, simulate=simulate)


def make_batch(thetas, stats, seed=0):
    return SimulationBatch(
        thetas=np.asarray(thetas, dtype=np.float64),
        stats=np.asarray(stats, dtype=np.float64),
        seed=seed,
        model_name="test",
        prior_hash="none",
    )


class TestPriors:
    def test_invalid_specs(self):
        with pytest.raises(Exception, match="lo < hi"):
            uniform(2.0, 1.0)
        with pytest.raises(Exception, match="positive scale"):
            normal(0.0, 0.0)
        with pytest.raises(Exception, match="positive volume"):
            PriorSpec(
                (uniform(0.0, 1.0),),
                truncation_box=TruncationRegion(lo=[0.5], hi=[0.5]),
            )


def ulps(x, reference) -> np.ndarray:
    return np.abs(x - reference) / np.spacing(np.abs(reference))


class TestNormalFunctions:
    def probe_points(self) -> np.ndarray:
        # AS 241's branches meet at min(p, 1 - p) = 0.075 and at
        # r = sqrt(-log min(p, 1 - p)) = 5
        edges = np.array([0.075, math.exp(-25.0)])[:, None] * (1.0 + np.array(
            [-1e-9, -1e-15, 0.0, 1e-15, 1e-9]))
        return np.concatenate([
            np.linspace(0.001, 0.999, 4001),
            edges.ravel(),
            1.0 - edges.ravel(),
            np.logspace(-300, -1, 2000),
            1.0 - np.logspace(-16, -1, 2000),
            [1e-300, 1.0 - 1e-16],
        ])

    def test_ndtri_matches_stdlib_as241(self):
        p = self.probe_points()
        reference = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in p])
        assert ulps(ndtri(p), reference).max() <= 2

    def test_ndtri_matches_scipy(self):
        p = self.probe_points()
        assert ulps(ndtri(p), special.ndtri(p)).max() <= 8

    def test_ndtri_grid_quantile_is_exact(self):
        # the GPD grid oracle's log-sigma edge; its pinned digests depend on it
        assert float(ndtri(0.001)) == -3.090232306167813

    def test_ndtri_keeps_shape(self):
        u = np.array([[0.01, 0.5], [0.9, 1e-20]])
        z = ndtri(u)
        assert z.shape == (2, 2)
        np.testing.assert_array_equal(z.ravel(), ndtri(u.ravel()))

    def test_ndtr_matches_scipy(self):
        x = np.linspace(-10.0, 8.0, 4001)
        np.testing.assert_allclose(ndtr(x), special.ndtr(x), rtol=1e-14, atol=0)
        # Below -10 scipy's Cephes erfc is itself off by up to 5.7e-14
        # relative (against 40-digit mpmath), where math.erfc stays within 4e-16.
        x = np.linspace(-37.0, -10.0, 4001)
        np.testing.assert_allclose(ndtr(x), special.ndtr(x), rtol=1e-13, atol=0)

    def test_ndtr_symmetry(self):
        x = np.linspace(0.0, 8.0, 801)
        np.testing.assert_allclose(ndtr(-x) + ndtr(x), 1.0, rtol=0, atol=2e-16)


class TestSimulateBatch:
    def test_bitwise_repeatability(self):
        prior = PriorSpec((uniform(0.0, 1.0),))
        sim = two_call_simulator()
        a = simulate_batch(prior, sim, 500, seed=42)
        b = simulate_batch(prior, sim, 500, seed=42)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.stats, b.stats)

    def test_thread_count_never_changes_output(self):
        prior = PriorSpec((normal(0.0, 1.0),))
        sim = two_call_simulator()
        m = 3 * CHUNK + 17
        serial = simulate_batch(prior, sim, m, seed=7)
        with worker_pool(8) as pool:
            threaded = simulate_batch(prior, sim, m, seed=7, pool=pool)
        np.testing.assert_array_equal(serial.thetas, threaded.thetas)
        np.testing.assert_array_equal(serial.stats, threaded.stats)

    def test_draws_independent_of_batch_size(self):
        prior = PriorSpec((normal(0.0, 1.0),))
        sim = two_call_simulator()
        small = simulate_batch(prior, sim, 3000, seed=11)
        large = simulate_batch(prior, sim, 2 * CHUNK, seed=11)
        np.testing.assert_array_equal(small.thetas, large.thetas[:3000])
        np.testing.assert_array_equal(small.stats, large.stats[:3000])

    def test_uniform_prior_support_and_mean(self):
        prior = PriorSpec((uniform(0.0, 1.0),))
        batch = simulate_batch(prior, two_call_simulator(), 1000, seed=3)
        assert np.all((batch.thetas >= 0.0) & (batch.thetas <= 1.0))
        assert 0.45 <= batch.thetas.mean() <= 0.55

    def test_truncation_box_respected(self):
        box = TruncationRegion(lo=[0.4], hi=[0.6])
        prior = PriorSpec((uniform(0.0, 1.0),), truncation_box=box)
        batch = simulate_batch(prior, two_call_simulator(), 2000, seed=4)
        assert np.all((batch.thetas >= 0.4) & (batch.thetas <= 0.6))
        # the box is recorded in the batch's prior hash: two boxes and no box
        # give three hashes
        other = prior.truncated(TruncationRegion(lo=[0.4], hi=[0.7]))
        hashes = {
            simulate_batch(p, two_call_simulator(), 10, seed=4).prior_hash
            for p in (other, PriorSpec(prior.marginals))
        }
        assert len(hashes | {batch.prior_hash}) == 3

    def test_truncated_draws_independent_of_batch_size(self):
        box = TruncationRegion(lo=[-0.5], hi=[0.5])
        prior = PriorSpec((normal(0.0, 1.0),), truncation_box=box)
        sim = two_call_simulator()
        small = simulate_batch(prior, sim, 1000, seed=12)
        large = simulate_batch(prior, sim, 5000, seed=12)
        np.testing.assert_array_equal(small.thetas, large.thetas[:1000])
        np.testing.assert_array_equal(small.stats, large.stats[:1000])

    def test_tiny_truncation_region_rejected(self):
        box = TruncationRegion(lo=[0.5], hi=[0.500001])
        prior = PriorSpec((uniform(0.0, 1.0),), truncation_box=box)
        with pytest.raises(NumericalError, match="truncation region too small"):
            simulate_batch(prior, two_call_simulator(), 10, seed=5)

    def test_untruncated_thetas_are_ppf_of_chunk_stream(self):
        margs = (normal(1.0, 2.0), lognormal(0.0, 0.5))
        seed, m = 21, CHUNK + 100
        batch = simulate_batch(PriorSpec(margs), echo_simulator(2), m, seed=seed)
        expected = []
        for chunk in range(2):
            key = np.random.SeedSequence((seed, 0, chunk, 0))
            u = np.random.Generator(np.random.Philox(key)).random((CHUNK, 2))
            expected.append(np.column_stack([g.ppf(u[:, i]) for i, g in enumerate(margs)]))
        np.testing.assert_array_equal(batch.thetas, np.vstack(expected)[:m])

    @pytest.mark.parametrize("seed", range(5))
    def test_mass_floor_is_exact(self, seed):
        prior = PriorSpec((uniform(0.0, 1.0),))
        below = prior.truncated(TruncationRegion(lo=[0.5], hi=[0.5 + 0.9e-4]))
        with pytest.raises(NumericalError, match="truncation region too small"):
            simulate_batch(below, two_call_simulator(), 10, seed=seed)
        above = prior.truncated(TruncationRegion(lo=[0.5], hi=[0.5 + 1.1e-4]))
        batch = simulate_batch(above, two_call_simulator(), 10, seed=seed)
        assert np.all((batch.thetas >= 0.5) & (batch.thetas <= 0.5 + 1.1e-4))

    @pytest.mark.parametrize(
        "marg, lo, hi, dist",
        [
            (normal(0.0, 1.0), -0.5, 1.2, stats.norm()),
            # upper tail, prior mass 1.1e-3
            (normal(0.0, 1.0), 3.0, 3.5, stats.norm()),
            # expanded box reaching below the lognormal support
            (lognormal(0.0, 1.0), -0.3, 1.5, stats.lognorm(s=1.0)),
            (uniform(0.0, 1.0), -0.25, 0.4, stats.uniform()),
        ],
        ids=["normal_interior", "normal_upper_tail", "lognormal_below_zero", "uniform_past_support"],
    )
    def test_truncated_draws_follow_truncated_cdf(self, marg, lo, hi, dist):
        box = TruncationRegion(lo=[lo], hi=[hi])
        prior = PriorSpec((marg,), truncation_box=box)
        x = simulate_batch(prior, echo_simulator(1), 20_000, seed=31).thetas[:, 0]
        assert np.all((x >= lo) & (x <= hi))
        # probability-integral transform under the truncated prior, taken
        # with survival functions so the upper tail keeps its precision
        pit = (dist.sf(lo) - dist.sf(x)) / (dist.sf(lo) - dist.sf(hi))
        assert stats.kstest(pit, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_chunk_raises(self, threads):
        prior = PriorSpec((uniform(0.0, 1.0),))
        clean = simulate_batch(prior, echo_simulator(1), 3 * CHUNK, seed=8)
        calls = []
        sim = poisoned_echo_simulator(clean.thetas[CHUNK + 3], calls)
        with worker_pool(threads) as pool, pytest.raises(
            NumericalError, match="simulator 'poisoned' produced non-finite values"
        ):
            simulate_batch(prior, sim, 3 * CHUNK, seed=8, pool=pool)
        if threads == 1:  # the check follows each chunk, so the third never runs
            assert calls == [CHUNK, CHUNK]

    def test_non_finite_unkept_tail_is_ignored(self):
        # draw CHUNK + 10 is simulated with the last chunk but not kept
        prior = PriorSpec((uniform(0.0, 1.0),))
        clean = simulate_batch(prior, echo_simulator(1), 2 * CHUNK, seed=8)
        sim = poisoned_echo_simulator(clean.thetas[CHUNK + 10], [])
        batch = simulate_batch(prior, sim, CHUNK + 5, seed=8)
        np.testing.assert_array_equal(batch.stats, clean.stats[: CHUNK + 5])

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


@pytest.mark.skipif(engine._blas_set is None, reason="numpy's BLAS exports no thread setter")
class TestWorkerPool:
    @pytest.fixture
    def caller_blas_threads(self):
        """The caller's BLAS thread count, 2 during the test, then put back."""
        get, set_ = engine._blas_get, engine._blas_set
        before = get()
        set_(2)
        yield 2
        set_(before)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_runs_on_one_thread_inside(self, caller_blas_threads, threads):
        with worker_pool(threads):
            assert engine._blas_get() == 1
        assert engine._blas_get() == caller_blas_threads

    def test_blas_count_is_restored_after_an_exception(self, caller_blas_threads):
        with pytest.raises(KeyError), worker_pool(2):
            assert engine._blas_get() == 1
            raise KeyError
        assert engine._blas_get() == caller_blas_threads

    def test_without_the_setter_it_warns_once_and_runs(self, monkeypatch, caller_blas_threads):
        monkeypatch.setattr(engine, "_blas_set", None)
        prior = PriorSpec((normal(0.0, 1.0),))
        serial = simulate_batch(prior, two_call_simulator(), 2 * CHUNK, seed=5)
        with pytest.warns(UserWarning, match="scipy_openblas_set_num_threads64_") as record:
            with worker_pool(2) as pool:
                assert engine._blas_get() == caller_blas_threads
                threaded = simulate_batch(prior, two_call_simulator(), 2 * CHUNK, seed=5, pool=pool)
        assert len(record) == 1
        np.testing.assert_array_equal(serial.stats, threaded.stats)


def row_distance(s, s_obs, scales) -> float:
    """The rejection distance of one statistic row."""
    rows = np.atleast_2d(np.asarray(s, dtype=np.float64))
    return float(_distance_matrix(rows, np.asarray(s_obs), np.asarray(scales))[0])


class TestDistance:
    def test_zero_at_observation(self):
        assert row_distance([1.0, 2.0], [1.0, 2.0], [1.0, 1.0]) == 0.0

    def test_hand_arithmetic(self):
        assert row_distance([3.0], [1.0], [2.0]) == pytest.approx(1.0)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(0)
        s, o = rng.standard_normal(4), rng.standard_normal(4)
        scales = rng.lognormal(0, 1, 4)
        d1 = row_distance(s, o, scales)
        d2 = row_distance(s, o, 2.0 * scales)
        assert d2 == pytest.approx(d1 / 2.0)


@st.composite
def stat_matrices(draw):
    """(m, d) statistics, m in [2, 300]; each column is continuous, drawn
    from four values (ties, often a zero MAD) or constant."""
    m = draw(st.integers(2, 300))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["continuous", "tied", "constant"]))
        if kind == "constant":
            columns.append(np.full(m, draw(st.floats(-1e6, 1e6, allow_nan=False))))
            continue
        elements = (
            st.floats(-1e6, 1e6, allow_nan=False) if kind == "continuous"
            else st.sampled_from([0.0, 0.1, 1.0, 7.25])
        )
        columns.append(draw(arrays(np.float64, m, elements=elements)))
    return np.column_stack(columns)


class TestScales:
    def test_constant_column_warns_and_uses_one(self):
        stats = np.column_stack([np.full(50, 2.0), np.arange(50.0)])
        batch = make_batch(np.zeros((50, 1)), stats)
        with pytest.warns(UserWarning, match="constant statistic"):
            scales, constant = compute_scales(batch)
        assert scales[0] == 1.0 and constant == 1

    def test_standard_normal_scale_near_one(self):
        rng = np.random.default_rng(1)
        stats = rng.standard_normal((100_000, 1))
        batch = make_batch(np.zeros((100_000, 1)), stats)
        assert 0.97 <= compute_scales(batch)[0][0] <= 1.03

    @settings(max_examples=80, deadline=None)
    @given(stat_matrices())
    @example(np.random.default_rng(4).standard_normal((2000, 11)))
    @example(np.column_stack([
        np.random.default_rng(5).integers(0, 3, (4097, 3)).astype(np.float64),
        np.random.default_rng(6).standard_normal(4097),
        np.full(4097, 0.1),
    ]))
    def test_medians_equal_axis0_formula_bitwise(self, x):
        mad = 1.4826 * np.median(np.abs(x - np.median(x, axis=0)), axis=0)
        sd = x.std(axis=0, ddof=1)
        expected = np.where(mad == 0.0, np.where(sd == 0.0, 1.0, sd), mad)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scales, constant = scales_from_matrix(x)
        assert np.array_equal(scales, expected)
        assert constant == np.count_nonzero((mad == 0.0) & (sd == 0.0))

    def test_mad_homogeneity_exact(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(999)
        s1, _ = compute_scales(make_batch(np.zeros((999, 1)), col[:, None]))
        s2, _ = compute_scales(make_batch(np.zeros((999, 1)), 10.0 * col[:, None]))
        np.testing.assert_array_equal(s2, 10.0 * s1)


class TestRejection:
    def test_accept_all_returns_prior_sample(self):
        rng = np.random.default_rng(3)
        batch = make_batch(rng.standard_normal((200, 1)), rng.standard_normal((200, 2)))
        post = rejection_abc(batch, [0.0, 0.0], fraction=1.0)
        assert post.n == 200
        np.testing.assert_array_equal(post.thetas, batch.thetas)
        np.testing.assert_array_equal(post.weights, np.full(200, 1 / 200))

    def test_counting_contract(self):
        rng = np.random.default_rng(4)
        batch = make_batch(rng.standard_normal((1000, 1)), rng.standard_normal((1000, 1)))
        post = rejection_abc(batch, [0.0], fraction=0.1)
        assert post.n == 100
        distances = _distance_matrix(batch.stats, np.zeros(1), compute_scales(batch)[0])
        assert post.epsilon == distances[post.accepted_indices].max()

    @pytest.mark.parametrize("fraction, kept", [(0.07, 7), (0.14, 14)])
    def test_fraction_keeps_its_decimal_count(self, fraction, kept):
        # 0.07 * 100 is 7.000000000000001 in floats, whose ceiling is 8
        batch = make_batch(np.zeros((100, 1)), np.arange(100.0)[:, None])
        post = rejection_abc(batch, [0.0], fraction=fraction, scales=[1.0])
        assert post.n == kept
        np.testing.assert_array_equal(post.accepted_indices, np.arange(kept))

    def test_discrete_toy_exact_enumeration(self):
        thetas = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])[:, None]
        batch = make_batch(thetas, thetas.copy())
        post = rejection_abc(batch, [1.0], epsilon=0.0, scales=[1.0])
        # brute force: the exact zero-tolerance posterior is uniform over
        # the draws whose statistic equals the observation
        expected = np.nonzero(thetas[:, 0] == 1.0)[0]
        np.testing.assert_array_equal(post.accepted_indices, expected)
        assert np.all(post.thetas == 1.0)
        np.testing.assert_array_equal(post.weights, np.full(4, 0.25))

    def test_epsilon_no_acceptance_reports_minimum(self):
        batch = make_batch(np.zeros((20, 1)), np.full((20, 1), 5.0))
        with pytest.raises(NumericalError, match="minimum observed distance"):
            rejection_abc(batch, [0.0], epsilon=1.0, scales=[1.0])

    def test_fraction_one_recovers_prior_mean(self):
        prior = PriorSpec((normal(2.0, 1.0),))
        batch = simulate_batch(prior, two_call_simulator(), 4000, seed=6)
        post = rejection_abc(batch, [0.0, 0.0, 0.5], fraction=1.0)
        mc_bound = 3.0 / np.sqrt(4000)
        assert abs(post.thetas.mean(axis=0)[0] - 2.0) < mc_bound

    def test_tie_break_by_draw_index(self):
        stats = np.array([[1.0], [0.0], [1.0], [0.0]])
        batch = make_batch(np.arange(4.0)[:, None], stats)
        post = rejection_abc(batch, [0.0], fraction=0.75, scales=[1.0])
        np.testing.assert_array_equal(post.accepted_indices, [0, 1, 3])

    @settings(max_examples=300, deadline=None)
    @given(
        stats=st.one_of(
            # heavy ties: |stat| takes at most four values
            arrays(np.float64, st.integers(1, 200), elements=st.integers(-3, 3).map(float)),
            arrays(np.float64, st.integers(1, 200), elements=st.floats(-1e6, 1e6)),
        ),
        fraction=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    )
    @example(stats=np.array([2.0]), fraction=0.5)
    @example(stats=np.zeros(7), fraction=0.3)
    def test_selection_equals_stable_argsort(self, stats, fraction):
        batch = make_batch(np.arange(stats.size, dtype=np.float64)[:, None], stats[:, None])
        post = rejection_abc(batch, [0.0], fraction=fraction, scales=[1.0])
        distances = _distance_matrix(batch.stats, np.zeros(1), np.ones(1))
        order = np.argsort(distances, kind="stable")
        expected = np.sort(order[: math.ceil(Fraction(repr(fraction)) * stats.size)])
        np.testing.assert_array_equal(post.accepted_indices, expected)
        assert post.epsilon == distances[post.accepted_indices].max()


class TestTruncationFromPilot:
    def make_posterior(self, values):
        values = np.asarray(values, dtype=np.float64)[:, None]
        n = len(values)
        return WeightedPosterior(
            thetas=values,
            epsilon=1.0,
            accepted_indices=np.arange(n),
        )

    def test_hand_arithmetic(self):
        region = truncation_from_pilot(self.make_posterior([3.0, 1.0, 2.5]))
        assert (region.lo[0], region.hi[0]) == (1.0, 3.0)
        region = truncation_from_pilot(self.make_posterior([4.0, 4.0]))
        assert (region.lo[0], region.hi[0]) == (4.0 - 4e-8, 4.0 + 4e-8)

    def test_exact_bounding_box(self):
        region = truncation_from_pilot(self.make_posterior([1.0, 2.0, 5.0]))
        np.testing.assert_array_equal(region.lo, [1.0])
        np.testing.assert_array_equal(region.hi, [5.0])

    def test_degenerate_widening(self):
        region = truncation_from_pilot(self.make_posterior([4.0, 4.0]))
        assert region.lo[0] < 4.0 < region.hi[0]

    def test_contains_all_pilot_draws(self):
        rng = np.random.default_rng(7)
        post = self.make_posterior(rng.standard_normal(100))
        region = truncation_from_pilot(post)
        assert np.all((region.lo <= post.thetas) & (post.thetas <= region.hi))


def test_posterior_refuses_a_column_that_is_not_n_long():
    with pytest.raises(ValueError, match="'accepted_indices'"):
        WeightedPosterior(thetas=np.zeros((3, 1)), epsilon=1.0, accepted_indices=np.arange(2))


class TestRegressionAdjust:
    def make_posterior(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        n = thetas.shape[0]
        return WeightedPosterior(
            thetas=thetas,
            epsilon=1.0,
            accepted_indices=np.arange(n),
        )

    def test_hand_ols_adjustment(self):
        # theta == s: slope 1, every draw moves exactly onto s_obs
        values = np.array([[1.0], [2.0], [3.0], [4.0]])
        post = self.make_posterior(values)
        adjusted = regression_adjust(post, values.copy(), [2.5])
        np.testing.assert_allclose(adjusted.thetas, 2.5)

    def test_uncorrelated_statistics_change_nothing(self):
        rng = np.random.default_rng(8)
        thetas = np.repeat([[1.0]], 40, axis=0)  # constant: zero covariance
        stats = rng.standard_normal((40, 2))
        adjusted = regression_adjust(self.make_posterior(thetas), stats, [0.0, 0.0])
        np.testing.assert_allclose(adjusted.thetas, thetas, atol=1e-12)

    def test_zero_innovation_changes_nothing(self):
        rng = np.random.default_rng(9)
        thetas = rng.standard_normal((30, 2))
        stats = np.tile([1.5, -0.5], (30, 1))
        adjusted = regression_adjust(self.make_posterior(thetas), stats, [1.5, -0.5])
        np.testing.assert_array_equal(adjusted.thetas, thetas)

    def test_diagnostics_in_provenance(self):
        rng = np.random.default_rng(10)
        thetas = rng.standard_normal((50, 1))
        stats = thetas + 0.1 * rng.standard_normal((50, 1))
        adjusted = regression_adjust(self.make_posterior(thetas), stats, [0.0])
        info = adjusted.provenance["adjustment"]
        assert info["condition_number"] >= 1.0
        assert len(info["vifs"]) == 1

    def test_ridge_is_on_the_mean_squared_residual(self):
        # the ridge fit over 1/n-weighted draws: design and responses
        # centered and scaled by sqrt(1/n), penalized by ridge_lambda
        rng = np.random.default_rng(12)
        n, lam = 60, 1e-2
        stats = rng.standard_normal((n, 3)) * [1.0, 2.0, 0.5]
        thetas = stats @ [[1.0, 0.5], [0.3, -1.0], [0.0, 2.0]] + 0.1 * rng.standard_normal((n, 2))
        s_obs = np.array([0.2, -0.1, 0.4])
        post = self.make_posterior(thetas)
        adjusted = regression_adjust(post, stats, s_obs, ridge_lambda=lam)

        xw = (stats - stats.mean(axis=0)) * np.sqrt(1.0 / n)
        yw = (thetas - thetas.mean(axis=0)) * np.sqrt(1.0 / n)
        coef = np.linalg.solve(xw.T @ xw + lam * np.eye(3), xw.T @ yw).T
        expected = thetas - (stats - s_obs) @ coef.T
        np.testing.assert_allclose(adjusted.thetas, expected, rtol=1e-10,
                                   atol=1e-10 * np.abs(expected).max())
        info = adjusted.provenance["adjustment"]
        assert info["ridge_lambda"] == lam
        sv = np.linalg.svd(xw, compute_uv=False)
        assert info["condition_number"] == pytest.approx(sv.max() / sv.min(), rel=1e-10)
        vifs = np.diag(np.linalg.inv(np.corrcoef(xw, rowvar=False)))
        np.testing.assert_allclose(info["vifs"], vifs, rtol=1e-10)

    def test_statistics_are_reused_as_given_after_the_fit(self):
        # the fit must not centre the caller's statistics in place: the
        # correction theta - B (s - s_obs) reads them again afterwards
        rng = np.random.default_rng(13)
        n = 80
        stats = rng.standard_normal((n, 2)) + [5.0, -3.0]
        thetas = stats @ [[1.0, 0.2], [-0.5, 1.0]] + 0.1 * rng.standard_normal((n, 2))
        s_obs = np.array([5.2, -2.9])
        given = stats.copy()
        adjusted = regression_adjust(self.make_posterior(thetas), stats, s_obs)
        assert stats.tobytes() == given.tobytes()
        coef = fit_linear(given, thetas).coef
        np.testing.assert_array_equal(adjusted.thetas, thetas - (given - s_obs) @ coef.T)

    def test_linear_gaussian_adjustment_moves_toward_oracle(self):
        # loose acceptance, draws from prior; adjusted mean should usually
        # land nearer the true posterior mean (full check in acceptance)
        from semiabc.models import linear_gaussian_fixture

        wins = 0
        for seed in range(10):
            fixture = linear_gaussian_fixture(
                p=2, d=2, coeffs=[[1.0, 0.0], [1.0, 1.0]], noise_sd=1.0, s_obs=[1.0, 2.0]
            )
            batch = simulate_batch(fixture.prior, fixture.simulator, 2000, seed=seed)
            post = rejection_abc(batch, fixture.s_obs, fraction=0.5)
            adjusted = regression_adjust(
                post, batch.stats[post.accepted_indices], fixture.s_obs
            )
            oracle = fixture.oracle.mean
            before = np.linalg.norm(post.thetas.mean(axis=0) - oracle)
            after = np.linalg.norm(adjusted.thetas.mean(axis=0) - oracle)
            wins += after < before
        assert wins >= 8
