import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semiabc.errors import SingularMatrixError
from semiabc.linalg import solve_spd

from bayes_linear import sample_cov, sample_mean

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def small_matrix(min_rows=1, max_rows=40, min_cols=1, max_cols=5):
    shapes = st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    )
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite_floats))


class TestSampleMean:
    def test_symmetric_values(self):
        assert sample_mean([[1.0], [2.0], [3.0]]) == pytest.approx([2.0])

    def test_single_row_is_its_own_mean(self):
        np.testing.assert_array_equal(sample_mean([[0.0, 5.0]]), [0.0, 5.0])

    def test_hand_arithmetic(self):
        np.testing.assert_allclose(sample_mean([[1.0, 2.0], [3.0, 6.0]]), [2.0, 4.0])

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError, match="no samples"):
            sample_mean(np.empty((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            sample_mean([[np.nan], [1.0]])

    @settings(max_examples=50, deadline=None)
    @given(small_matrix(min_rows=2), st.randoms(use_true_random=False))
    def test_permutation_invariant_bitwise(self, x, rnd):
        perm = list(range(x.shape[0]))
        rnd.shuffle(perm)
        np.testing.assert_array_equal(sample_mean(x), sample_mean(x[perm]))


class TestSampleCov:
    def test_constant_column_gives_zero_row(self):
        x = np.array([[2.0, 1.0], [2.0, 5.0], [2.0, 9.0]])
        y = np.array([[1.0], [2.0], [3.0]])
        cov = sample_cov(x, y)
        np.testing.assert_array_equal(cov[0], [0.0])

    def test_hand_computation(self):
        cov = sample_cov([[1.0], [2.0], [3.0]], [[2.0], [4.0], [6.0]])
        np.testing.assert_allclose(cov, [[2.0]])

    def test_self_cov_symmetric_exactly(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((37, 4)) * rng.lognormal(0, 2, (37, 4))
        cov = sample_cov(s, s)
        np.testing.assert_array_equal(cov, cov.T)

    def test_transpose_identity_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((23, 3))
        y = rng.standard_normal((23, 5))
        np.testing.assert_array_equal(sample_cov(x, y), sample_cov(y, x).T)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            sample_cov([[1.0]], [[2.0]])

    def test_mismatched_rows(self):
        with pytest.raises(ValueError, match="sample count"):
            sample_cov([[1.0], [2.0]], [[1.0], [2.0], [3.0]])

    def test_unbiased_denominator(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 2))
        np.testing.assert_allclose(sample_cov(x, x), np.cov(x, rowvar=False), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(small_matrix(min_rows=2, max_rows=25, max_cols=3), st.randoms(use_true_random=False))
    def test_permutation_invariant_bitwise(self, x, rnd):
        perm = list(range(x.shape[0]))
        rnd.shuffle(perm)
        np.testing.assert_array_equal(sample_cov(x, x), sample_cov(x[perm], x[perm]))


class TestSolveSpd:
    def test_identity_solve(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        x, jitter = solve_spd(np.eye(3), b)
        np.testing.assert_array_equal(x, b)
        assert jitter == 0.0

    def test_diagonal_inversion_oracle(self):
        x, _ = solve_spd([[2.0, 0.0], [0.0, 4.0]], [[1.0], [1.0]])
        np.testing.assert_allclose(x, [[0.5], [0.25]])

    def test_vector_rhs_keeps_shape(self):
        x, _ = solve_spd([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0])
        assert x.shape == (2,)
        np.testing.assert_allclose(x, [0.5, 0.25])

    def test_rank_one_rhs_in_range(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[2.0], [2.0]])
        x, _ = solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * np.max(np.abs(b))

    def test_rank_one_rhs_not_in_range_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError, match="singular statistic covariance"):
            solve_spd(a, [[1.0], [0.0]])
        try:
            solve_spd(a, [[1.0], [0.0]])
        except SingularMatrixError as exc:
            assert exc.condition > 1e6

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd([[1.0, 0.5], [0.0, 1.0]], [[1.0], [1.0]])

    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_solution_well_conditioned(self, seed):
        # eigenvalues spread across six decades: condition up to ~1e6
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 21))
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        exponents = rng.uniform(-3, 3, k)
        exponents[0], exponents[1] = -3.0, 3.0
        a = (q * 10.0**exponents) @ q.T
        assert np.linalg.cond(a) < 1.1e6
        x0 = rng.standard_normal((k, 3))
        x, _ = solve_spd(a, a @ x0)
        assert np.max(np.abs(x - x0)) < 1e-8
