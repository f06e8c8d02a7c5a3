import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiabc.errors import ConfigError, NumericalError, RankDeficientError
from semiabc.regression import (
    VIF_SENTINEL,
    BasisSpec,
    condition_diagnostics,
    expand_basis,
    expand_design,
    fit_linear,
    monomial_exponents,
)


class TestExpandBasis:
    def test_identity(self):
        np.testing.assert_array_equal(
            expand_basis([2.0, 3.0], BasisSpec("identity")), [2.0, 3.0]
        )

    def test_polynomial_degree_two_hand_enumeration(self):
        # s1, s2, s1^2, s1 s2, s2^2 at s=(2,3)
        out = expand_basis([2.0, 3.0], BasisSpec("polynomial", degree=2))
        np.testing.assert_array_equal(out, [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_powers_hand_arithmetic(self):
        out = expand_basis([2.0, 3.0], BasisSpec("powers", exponents=((3, 0),)))
        np.testing.assert_array_equal(out, [8.0])

    def test_monomial_order_is_total_and_documented(self):
        assert monomial_exponents(2, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_equal_inputs_bitwise_equal_outputs(self):
        spec = BasisSpec("polynomial", degree=3)
        s = np.array([1.7, -0.3, 2.9])
        np.testing.assert_array_equal(expand_basis(s, spec), expand_basis(s.copy(), spec))

    def test_overflow_names_the_monomial(self):
        spec = BasisSpec("powers", exponents=((0, 4),))
        with pytest.raises(NumericalError, match=r"\(0, 4\)"):
            expand_basis([1.0, 1e100], spec)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            BasisSpec("polynomial")
        with pytest.raises(ConfigError):
            BasisSpec("powers", exponents=((-1, 0),))
        with pytest.raises(ConfigError):
            BasisSpec("nope")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3))
    def test_polynomial_dimension_formula(self, d, k):
        # number of monomials of total degree 1..k over d variables
        from math import comb

        expected = sum(comb(d + j - 1, j) for j in range(1, k + 1))
        assert len(monomial_exponents(d, k)) == expected


class TestFitLinear:
    def test_noiseless_affine_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 3))
        coef = np.array([[1.5, -2.0, 0.5], [0.0, 1.0, 3.0]])
        intercept = np.array([0.7, -1.2])
        y = intercept + x @ coef.T
        fit = fit_linear(x, y)
        np.testing.assert_allclose(fit.coef, coef, atol=1e-8)
        np.testing.assert_allclose(fit.intercept, intercept, atol=1e-8)

    def test_hand_ols(self):
        fit = fit_linear([[1.0], [2.0], [3.0]], [[2.0], [4.0], [6.0]])
        assert fit.intercept[0] == pytest.approx(0.0, abs=1e-12)
        assert fit.coef[0, 0] == pytest.approx(2.0)

    def test_duplicated_column_ols_is_an_error(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((50, 1))
        x = np.hstack([base, base])
        y = rng.standard_normal((50, 1))
        with pytest.raises(RankDeficientError, match="supply ridge_lambda"):
            fit_linear(x, y)

    def test_duplicated_column_ridge_splits_evenly(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((50, 1))
        x = np.hstack([base, base])
        y = 3.0 * base + 0.1 * rng.standard_normal((50, 1))
        fit = fit_linear(x, y, ridge_lambda=1e-6)
        assert abs(fit.coef[0, 0] - fit.coef[0, 1]) <= 1e-6

    def test_ridge_path_continuity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 4))
        y = rng.standard_normal((80, 2))
        ols = fit_linear(x, y)
        ridged = fit_linear(x, y, ridge_lambda=1e-12)
        assert np.max(np.abs(ols.coef - ridged.coef)) < 1e-6

    def test_unweighted_fit_holds_one_centered_copy(self):
        # beyond the design it was given, the fit holds the centered copy
        # and the SVD's U (2.24 designs); a sqrt(1)-scaled copy of the
        # centered design would add one more
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2000, 200))
        y = rng.standard_normal((2000, 3))
        tracemalloc.start()
        try:
            fit_linear(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes

    @pytest.mark.parametrize("ridge_lambda", [0.0, 1e-3])
    def test_overwrite_design_centres_in_place_with_the_same_bits(self, ridge_lambda):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2000, 200)) * rng.uniform(0.1, 10.0, 200) + 3.0
        if ridge_lambda:
            x[:, 7] = 0.1  # a constant column that centres to rounding noise
        y = rng.standard_normal((2000, 3))
        copied = fit_linear(x, y, ridge_lambda)
        centred = x - x.sum(axis=0) / x.shape[0]
        tracemalloc.start()
        try:
            fit = fit_linear(x, y, ridge_lambda, overwrite_design=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in ("coef", "intercept", "vifs"):
            assert getattr(fit, name).tobytes() == getattr(copied, name).tobytes(), name
        assert (fit.vifs[7] == VIF_SENTINEL) == bool(ridge_lambda)
        assert fit.condition_number == copied.condition_number
        assert x.tobytes() == centred.tobytes()
        # no centred copy: beyond the design only the SVD's U and small arrays
        assert peak < 1.5 * x.nbytes

    def test_too_few_rows_for_ols(self):
        with pytest.raises(ValueError, match="rows"):
            fit_linear(np.eye(3), np.eye(3))


def brute_force_vif(x, j):
    """1/(1 - R^2) = SST/SSR of column j regressed on the others with
    intercept, written without the cancellation in 1 - R^2."""
    m = x.shape[0]
    design = np.column_stack([np.ones(m), np.delete(x, j, axis=1)])
    beta, *_ = np.linalg.lstsq(design, x[:, j], rcond=None)
    resid = x[:, j] - design @ beta
    return np.sum((x[:, j] - x[:, j].mean()) ** 2) / np.sum(resid**2)


class TestConditionDiagnostics:
    def test_orthonormal_columns(self):
        # columns orthogonal and centered by construction
        x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        cond, vifs = condition_diagnostics(x)
        assert cond == pytest.approx(1.0)
        np.testing.assert_allclose(vifs, [1.0, 1.0], atol=1e-9)

    def test_two_identical_columns_hit_sentinel(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((40, 1))
        _, vifs = condition_diagnostics(np.hstack([base, base]))
        np.testing.assert_array_equal(vifs, [VIF_SENTINEL, VIF_SENTINEL])

    @pytest.mark.parametrize("noise", [1e-3, 1e-5])
    def test_near_collinear_vif_matches_brute_force(self, noise):
        rng = np.random.default_rng(6)
        m = 1000
        c1 = rng.standard_normal(m)
        c2 = c1 + noise * rng.standard_normal(m)
        c3 = rng.standard_normal(m)
        x = np.column_stack([c1, c2, c3])
        vifs = fit_linear(x, rng.standard_normal((m, 1))).vifs
        assert vifs[0] > 0.1 / noise**2 and vifs[1] > 0.1 / noise**2
        for j in range(3):
            np.testing.assert_allclose(vifs[j], brute_force_vif(x, j), rtol=1e-9)
        np.testing.assert_allclose(condition_diagnostics(x)[1], vifs, rtol=1e-9)

    def test_zero_variance_column_gets_sentinel(self):
        x = np.column_stack([np.ones(20), np.arange(20.0)])
        cond, vifs = condition_diagnostics(x)
        assert np.isinf(cond)
        assert vifs[0] == VIF_SENTINEL
        assert vifs[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("case", ["zero_variance", "inexact_constant", "duplicate"])
    def test_ridge_fit_vifs_match_diagnostics(self, case):
        rng = np.random.default_rng(9)
        if case in ("zero_variance", "inexact_constant"):
            # a constant 0.1 column centers to rounding noise (~1e-17), not 0
            constant = 1.0 if case == "zero_variance" else 0.1
            x = np.column_stack([np.full(20, constant), np.arange(20.0), rng.standard_normal(20)])
        else:
            base = rng.standard_normal((40, 1))
            x = np.hstack([base, base, rng.standard_normal((40, 1))])
        fit = fit_linear(x, rng.standard_normal((x.shape[0], 1)), ridge_lambda=1e-8)
        cond, vifs = condition_diagnostics(x)
        assert fit.vifs[0] == vifs[0] == VIF_SENTINEL
        if case != "duplicate":
            assert np.isinf(cond)
        np.testing.assert_allclose(fit.vifs, vifs, rtol=1e-9)
        # the last column is independent noise: its VIF stays exact
        np.testing.assert_allclose(fit.vifs[-1], brute_force_vif(x, x.shape[1] - 1), rtol=1e-9)

    def test_wide_design_reports_sentinels(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 8))
        fit = fit_linear(x, rng.standard_normal((5, 1)), ridge_lambda=1e-3)
        np.testing.assert_array_equal(fit.vifs, np.full(8, VIF_SENTINEL))
        np.testing.assert_array_equal(condition_diagnostics(x)[1], fit.vifs)

    def test_fit_populates_diagnostics(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 3))
        fit = fit_linear(x, rng.standard_normal((100, 2)))
        assert fit.condition_number >= 1.0
        assert fit.vifs.shape == (3,)


def test_expand_design_matches_rowwise_expand_basis():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((10, 2))
    spec = BasisSpec("polynomial", degree=2)
    design = expand_design(s, spec)
    for i in range(10):
        np.testing.assert_array_equal(design[i], expand_basis(s[i], spec))
