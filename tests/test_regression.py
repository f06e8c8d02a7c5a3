import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiabc.engine import CHUNK
from semiabc.errors import ConfigError, NumericalError, RankDeficientError
from semiabc.regression import (
    _TILE,
    VIF_SENTINEL,
    BasisSpec,
    LinearFit,
    _vifs,
    _zero_variance,
    condition_diagnostics,
    expand_design,
    fit_linear,
    monomial_exponents,
)
from semiabc.semiauto import _design_blocks


class TestExpandBasis:
    def test_identity(self):
        np.testing.assert_array_equal(
            expand_design([[2.0, 3.0]], BasisSpec("identity"))[0], [2.0, 3.0]
        )

    def test_polynomial_degree_two_hand_enumeration(self):
        # s1, s2, s1^2, s1 s2, s2^2 at s=(2,3)
        out = expand_design([[2.0, 3.0]], BasisSpec("polynomial", degree=2))[0]
        np.testing.assert_array_equal(out, [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_monomial_order_is_total_and_documented(self):
        assert monomial_exponents(2, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_equal_inputs_bitwise_equal_outputs(self):
        spec = BasisSpec("polynomial", degree=3)
        s = np.array([[1.7, -0.3, 2.9]])
        np.testing.assert_array_equal(expand_design(s, spec), expand_design(s.copy(), spec))

    def test_overflow_names_the_monomial(self):
        spec = BasisSpec("polynomial", degree=2)
        with pytest.raises(NumericalError, match=r"\(0, 2\)"):
            expand_design([[1.0, 1e200]], spec)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            BasisSpec("polynomial")
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
        # beyond the design it was given, the fit holds the centered
        # [X | Y] it factorizes and numpy's copy of it for the QR (2.16
        # designs); a sqrt(1)-scaled copy of the centered design would add
        # one more
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
    def test_streamed_fit_matches_one_block_fit(self, ridge_lambda):
        # 2 CHUNK + 17 rows: two full blocks and a partial one
        rng = np.random.default_rng(11)
        m = 2 * CHUNK + 17
        x = rng.standard_normal((m, 200)) * rng.uniform(0.1, 10.0, 200) + 3.0
        y = x @ rng.standard_normal((200, 3)) + rng.standard_normal((m, 3))
        whole = fit_linear(x, y, ridge_lambda)
        streamed = fit_linear(row_blocks(x), y, ridge_lambda)
        for name in ("coef", "intercept", "vifs", "residual_mss"):
            np.testing.assert_allclose(
                getattr(streamed, name), getattr(whole, name), rtol=1e-10, err_msg=name
            )
        assert streamed.condition_number == pytest.approx(whole.condition_number, rel=1e-10)

    def test_streamed_fit_flags_a_constant_column(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2 * CHUNK + 17, 5))
        x[:, 3] = 0.1  # centers to rounding noise, block by block as well
        fit = fit_linear(row_blocks(x), rng.standard_normal((x.shape[0], 1)), 1e-3)
        assert fit.vifs[3] == VIF_SENTINEL
        assert np.all(fit.vifs[[0, 1, 2, 4]] < 1.01)

    @pytest.mark.parametrize("streamed", [False, True], ids=["array", "blocks"])
    def test_fit_never_writes_to_its_inputs(self, streamed):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((CHUNK + 5, 4)) + 2.0
        y = rng.standard_normal((CHUNK + 5, 2)) + 1.0
        x_bytes, y_bytes = x.tobytes(), y.tobytes()
        fit_linear(row_blocks(x) if streamed else x, y)
        assert x.tobytes() == x_bytes and y.tobytes() == y_bytes

    def test_residual_mss_is_the_mean_squared_residual(self):
        rng = np.random.default_rng(14)
        m = 300
        x = rng.standard_normal((m, 4))
        y = x @ rng.standard_normal((4, 2)) + 0.5 * rng.standard_normal((m, 2))
        for ridge_lambda in (0.0, 5.0):
            fit = fit_linear(x, y, ridge_lambda)
            resid = y - fit.intercept - x @ fit.coef.T
            np.testing.assert_allclose(fit.residual_mss, (resid**2).mean(axis=0), rtol=1e-12)

    # an empty design is an empty iterator; a longer one is counted to its end
    @pytest.mark.parametrize(
        "rows", [20, 0, 22, 2 * CHUNK + 1], ids=["shorter", "empty", "longer", "blocks_longer"]
    )
    def test_rows_that_do_not_match_the_responses(self, rows):
        x = np.random.default_rng(15).standard_normal((rows, 2))
        with pytest.raises(ValueError, match=f"design has {rows} rows, responses 21$"):
            fit_linear(row_blocks(x), np.zeros((21, 1)))

    def test_an_empty_block_is_skipped(self):
        # no mean of an empty first block: its means would shift every row
        rng = np.random.default_rng(18)
        x = rng.standard_normal((30, 3))
        y = x @ rng.standard_normal((3, 2)) + rng.standard_normal((30, 2))
        blocks = iter([(slice(0, 0), x[:0]), (slice(0, 30), x)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            streamed = fit_linear(blocks, y)
        np.testing.assert_array_equal(streamed.coef, fit_linear(x, y).coef)

    @pytest.mark.parametrize("m", [5, 8])
    def test_a_wide_ridge_fit_is_infinitely_conditioned(self, m):
        # centred, m <= q rows span at most m - 1 < q dimensions
        rng = np.random.default_rng(19)
        fit = fit_linear(rng.standard_normal((m, 8)), rng.standard_normal((m, 2)), 1e-3)
        assert fit.condition_number == np.inf

    def test_too_few_rows_for_ols(self):
        with pytest.raises(ValueError, match="rows"):
            fit_linear(np.eye(3), np.eye(3))


def row_blocks(x):
    """A one-shot iterator of (rows, block) pairs of CHUNK-row slices of x,
    as `fit_linear` reads them."""
    return ((slice(i, i + CHUNK), x[i : i + CHUNK]) for i in range(0, x.shape[0], CHUNK))


def two_pass_fit(blocks, y, ridge_lambda=0.0):
    """The reference for `fit_linear` on a tall design: the fit as it read
    `blocks()`, a fresh iterator of (rows, block) pairs, twice. The first
    pass sums the columns; the second takes the R factor of the centred
    [X | Y] under the mean found by the first."""
    x_sum = raw_sq_norms = 0.0
    for _, block in blocks():
        x_sum = x_sum + block.sum(axis=0)
        raw_sq_norms = raw_sq_norms + np.einsum("ij,ij->j", block, block)
    (m, p), q = y.shape, x_sum.size
    x_mean, y_mean = x_sum / m, y.sum(axis=0) / m
    r = np.empty((0, q + p))
    for rows, block in blocks():
        r = np.linalg.qr(np.vstack([r, np.hstack([block - x_mean, y[rows] - y_mean])]), mode="r")
    rx, z, ryy = r[:q, :q], r[:q, q:], r[q:, q:]
    u, sv, vt = np.linalg.svd(rx)
    shrink = 1.0 / sv if ridge_lambda == 0.0 else sv / (sv**2 + ridge_lambda)
    coef = (vt.T @ (shrink[:, None] * (u.T @ z))).T
    resid = z - rx @ coef.T
    sq_norms = np.einsum("ij,ij->j", rx, rx)
    return LinearFit(
        intercept=y_mean - coef @ x_mean,
        coef=coef,
        condition_number=max(sv.max() / sv.min(), 1.0),
        vifs=_vifs(sq_norms, m, sv, vt, _zero_variance(sq_norms, raw_sq_norms, m)),
        residual_mss=(np.einsum("ij,ij->j", resid, resid) + np.einsum("ij,ij->j", ryy, ryy)) / m,
    )


class TestOnePassFit:
    """The one-pass fit against the two-pass reference it replaced."""

    def assert_matches_two_pass(self, blocks, y, ridge_lambda=0.0):
        one_pass = fit_linear(blocks(), y, ridge_lambda)
        two_pass = two_pass_fit(blocks, y, ridge_lambda)
        for field in dataclasses.fields(LinearFit):
            np.testing.assert_allclose(
                getattr(one_pass, field.name), getattr(two_pass, field.name), rtol=1e-9,
                err_msg=field.name,
            )

    def test_wide_cubic_design(self):
        # the q = 559 design of semiauto's streamed-wide-fit test, in 3 blocks
        cubic = BasisSpec("polynomial", degree=3)
        rng = np.random.default_rng(16)
        stats = rng.standard_normal((4000, 13))
        design = expand_design(stats, cubic)
        y = design @ rng.standard_normal((559, 2)) + rng.standard_normal((4000, 2))
        self.assert_matches_two_pass(lambda: _design_blocks(stats, cubic), y)

    @pytest.mark.parametrize("ridge_lambda", [0.0, 1e-3])
    def test_first_block_far_from_the_mean(self, ridge_lambda):
        # sorted by column 0, the first block's means are not the design's,
        # and an offset of 1e6 puts them far from zero: the shift by the
        # first block's means is only for precision
        rng = np.random.default_rng(17)
        m = 2 * CHUNK + 17
        x = rng.standard_normal((m, 5)) * rng.uniform(0.5, 2.0, 5)
        x = x[np.argsort(x[:, 0])]
        y = x @ rng.standard_normal((5, 3)) + 0.5 * rng.standard_normal((m, 3))
        x = x + 1e6
        self.assert_matches_two_pass(lambda: row_blocks(x), y, ridge_lambda)


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

    @pytest.mark.parametrize("m", [5, 8, 9])
    def test_m_at_most_q_rows_have_an_infinite_condition(self, m):
        # centring leaves an m-row design of rank m - 1 at most, below q = 8
        # up to m = 8: the smallest singular value is rounding, not a scale
        rng = np.random.default_rng(10)
        x = rng.standard_normal((m, 8))
        fit = fit_linear(x, rng.standard_normal((m, 1)), ridge_lambda=1e-3)
        cond = condition_diagnostics(x)[0]
        if m <= 8:
            assert np.isinf(cond) and np.isinf(fit.condition_number)
        else:
            assert np.isfinite(cond) and np.isfinite(fit.condition_number)

    def test_fit_populates_diagnostics(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((100, 3))
        fit = fit_linear(x, rng.standard_normal((100, 2)))
        assert fit.condition_number >= 1.0
        assert fit.vifs.shape == (3,)


def test_expand_design_matches_one_row_designs():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((10, 2))
    spec = BasisSpec("polynomial", degree=2)
    design = expand_design(s, spec)
    for i in range(10):
        np.testing.assert_array_equal(design[i], expand_design(s[i : i + 1], spec)[0])


def expand_design_per_column(stats, exponents):
    """The reference `expand_design` is checked against: each column
    multiplied out from ones, left to right over the variables, and each
    column checked for overflow in column order."""
    s = np.asarray(stats, dtype=np.float64)
    cols = np.empty((s.shape[0], len(exponents)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, exps in enumerate(exponents):
            col = np.ones(s.shape[0])
            for i, e in enumerate(exps):
                if e:
                    col = col * s[:, i] ** e
            if not np.all(np.isfinite(col)):
                raise NumericalError(f"monomial with exponents {exps} overflowed to non-finite")
            cols[:, j] = col
    return cols


class TestExpandDesignBits:
    # rows that end mid-tile, so the last tile is partial
    M = 2 * _TILE + 37

    def stats(self, d, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((self.M, d)) * rng.uniform(0.1, 20.0, d)
        s[::7, 0] = -0.0
        return s

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_polynomial_matches_per_column_loop_bitwise(self, degree):
        s = self.stats(4, degree)
        design = expand_design(s, BasisSpec("polynomial", degree=degree))
        reference = expand_design_per_column(s, monomial_exponents(4, degree))
        assert design.flags.c_contiguous
        assert design.tobytes() == reference.tobytes()

    def test_overflow_names_the_first_bad_column_in_column_order(self):
        # the earlier tile overflows only in a later column
        s = self.stats(3, 21)
        s[10, 2] = 1e120
        s[self.M - 1, 0] = 1e200
        exponents = monomial_exponents(3, 3)
        with pytest.raises(NumericalError) as reference:
            expand_design_per_column(s, exponents)
        with pytest.raises(NumericalError) as raised:
            expand_design(s, BasisSpec("polynomial", degree=3))
        assert str(raised.value) == str(reference.value)
        assert "(2, 0, 0)" in str(raised.value)

    def test_width_counts_the_columns(self):
        for spec in (BasisSpec("identity"), BasisSpec("polynomial", degree=3)):
            assert spec.width(3) == expand_design(np.ones((2, 3)), spec).shape[1]
