"""Design-matrix construction, affine (ridge) least squares, and collinearity diagnostics.

Every fit is the paper's affine estimator a + B s: an unpenalized
intercept and an unweighted least squares coefficient matrix. With no
penalty, regressing parameters on raw statistics reproduces the
intercept and coefficient matrix of the optimal affine (Bayes linear)
estimator, and the tests check this against an independent fit from
sample moments rather than assume it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ConfigError, NumericalError, RankDeficientError
# solve_spd is unused here but stays importable: the benchmark tracer patches it by name.
from .linalg import as_matrix, solve_spd  # noqa: F401

# Computed VIFs above this are reported as the numerical-infinity sentinel.
VIF_CUTOFF = 1e12
VIF_SENTINEL = 1e18

BASIS_KINDS = ("identity", "polynomial")


@dataclass(frozen=True)
class BasisSpec:
    """How raw statistics are expanded before a regression fit.

    kind "identity" passes statistics through and takes no degree;
    "polynomial" emits all monomials of total degree 1..degree.
    """

    kind: str = "identity"
    degree: int | None = None

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ConfigError(f"must be one of {BASIS_KINDS}, got {self.kind!r}", "kind")
        if self.kind == "identity":
            if self.degree is not None:
                raise ConfigError("does not apply to an identity basis", "degree")
        elif not (_is_int(self.degree) and self.degree >= 1):
            raise ConfigError(f"must be an integer >= 1, got {self.degree!r}", "degree")

    def width(self, d: int) -> int:
        """The number of design columns this basis makes of d statistics,
        counted without listing its monomials."""
        return d if self.kind == "identity" else math.comb(d + self.degree, self.degree) - 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def monomial_exponents(d: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors for all monomials of total degree 1..degree over d
    coordinates, in the canonical order: degree-major, then lexicographic
    by the index multiset (s1, s2, ..., s1^2, s1*s2, s2^2, ...)."""
    out = []
    for k in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), k):
            exps = [0] * d
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def _prefix_plan(exponents) -> list[tuple[int | None, int, int]]:
    """How `expand_design` builds the monomials of `exponents`, which are
    in the canonical order of `monomial_exponents`, one buffer row each.

    Step r makes row r as `prefix_row * s_i ** e`: the monomial without
    the power of its last variable, times that power. That is the
    left-to-right product over the variables, so each row has the bits of
    the monomial multiplied out from 1. The prefix has a lower degree, so
    it is an earlier row; it is None for a single power. A step is
    (prefix row, i, e).
    """
    rows = {exps: r for r, exps in enumerate(exponents)}
    steps = []
    for exps in exponents:
        used = [i for i, e in enumerate(exps) if e]
        last = used[-1]
        prefix = exps[:last] + (0,) * (len(exps) - last)
        steps.append((rows[prefix] if len(used) > 1 else None, last, exps[last]))
    return steps


@lru_cache(maxsize=16)
def _plan(spec: BasisSpec, d: int) -> tuple[tuple, tuple]:
    """The exponents of a polynomial `spec` over d statistics and their
    `_prefix_plan` steps, as tuples.

    Built once per (spec, d): a streamed design expands its statistics one
    block at a time, and each block would otherwise rebuild the plan in
    Python (2.2 ms for the 559 monomials of degree 3 in 13 statistics).
    """
    exponents = tuple(monomial_exponents(d, spec.degree))
    return exponents, tuple(_prefix_plan(exponents))


# Rows per `expand_design` tile. The tile buffer's rows are padded by
# _PAD values: a row stride that is a power of two made the transposing
# copy into the design about twice as slow.
_TILE = 1024
_PAD = 8


def expand_design(stats, spec: BasisSpec) -> np.ndarray:
    """Expand an (M, d) statistic matrix to the (M, q) design of `spec`.

    The column order is total and deterministic: equal inputs give
    bitwise-equal outputs. The design is C-ordered. It is built `_TILE`
    rows at a time, one monomial per buffer row (see `_prefix_plan`),
    then copied into the design transposed.
    """
    s = as_matrix(stats, "stats")
    if spec.kind == "identity":
        return s.copy()
    exponents, steps = _plan(spec, s.shape[1])
    m = s.shape[0]
    design = np.empty((m, len(steps)))
    buf = np.empty((len(steps), min(m, _TILE) + _PAD))
    bad = len(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _TILE):
            stop = min(start + _TILE, m)
            tile = buf[:, : stop - start]
            powers = {}
            for r, (prefix, i, e) in enumerate(steps):
                if (i, e) not in powers:
                    powers[i, e] = s[start:stop, i] ** e
                if prefix is None:
                    tile[r] = powers[i, e]
                else:
                    np.multiply(tile[prefix], powers[i, e], out=tile[r])
            if not np.all(np.isfinite(tile)):
                bad = min(bad, int(np.argmin(np.isfinite(tile).all(axis=1))))
            design[start:stop] = tile.T
    if bad < len(steps):
        raise NumericalError(f"monomial with exponents {exponents[bad]} overflowed to non-finite")
    return design


@dataclass(frozen=True)
class LinearFit:
    """A fitted (possibly ridge-penalized) multi-response linear model."""

    intercept: np.ndarray  # (p,)
    coef: np.ndarray  # (p, q)
    condition_number: float  # extreme singular value ratio of the design fitted
    vifs: np.ndarray  # (q,) of the design fitted
    residual_mss: np.ndarray  # (p,) mean squared residual of each response

    def __post_init__(self):
        if self.condition_number < 1.0:
            raise ValueError("condition_number must be >= 1")


def fit_linear(design, responses, ridge_lambda: float = 0.0) -> LinearFit:
    """Affine least squares of (M, p) responses on an (M, q) design.

    Minimizes sum_m ||y_m - a - B x_m||^2 + ridge_lambda ||B||_F^2 with
    the intercept a never penalized. With ridge_lambda = 0 a
    rank-deficient design is an error rather than a silent pseudo-inverse.

    `design` is an (M, q) array or a one-shot iterator of (rows, block)
    pairs whose blocks are its rows in order, such as
    `semiauto._design_blocks(stats, basis)`; the fit counts rows and does
    not read `rows`. It reads the design once, never holds all of it and
    never writes to an array it is given. It takes the R factor of
    [1 | X - c | Y - c_y] block by block (AS 75, Gentleman; AS 274, Miller 1992);
    the first block's means c and c_y only shift the data, for precision.
    R's first row holds the rest of the means, and R[1:, 1:] = [[Rx, z],
    [0, Ryy]] is the R factor of the centered [X | Y] (the R-SVD, Chan
    1982). The SVD of the q x q Rx gives the coefficients, the condition
    number and the VIFs of the centered design (the sentinel 1e18 above
    1e12, for zero-variance columns and in an exact null direction).
    Response j's residual sum of squares is ||z_j - Rx b_j||^2 + ||Ryy_j||^2.

    Each step is LAPACK dgeqrf, in place, on one buffer the fit owns that
    holds R above the block: the fit holds one [R; block] stack, whose
    size `_design_blocks` caps by bytes, and rounds by where blocks split.
    """
    y = as_matrix(responses, "responses")
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    if not isinstance(design, Iterator):
        x = as_matrix(design, "design")
        design = iter(((slice(0, x.shape[0]), x),))
    m, p = y.shape
    if m < 2:
        raise ValueError("need at least 2 rows")

    # R of [1 | X - c | Y - c_y] by LAPACK dgeqrf in place on one buffer: a
    # C-ordered (n, capacity) array is the column-major capacity x n matrix
    # whose first `top` rows hold R and whose next rows take a block. The
    # raw squared norms `_zero_variance` needs are summed alongside.
    raw_sq_norms = 0.0
    rows_seen = 0
    for _, block in design:
        b = block.shape[0]
        if not b:
            continue
        if rows_seen + b > m:  # count the rest for the error below
            rows_seen += b + sum(rest.shape[0] for _, rest in design)
            break
        y_block = y[rows_seen : rows_seen + b]
        if not rows_seen:
            q = block.shape[1]
            n, top = 1 + q + p, 0
            c, c_y = block.mean(axis=0), y_block.mean(axis=0)
            buf, tau, work = np.empty((n, n + b)), np.empty(n), np.empty(1)
            _dgeqrf(n, buf, tau, work, -1)  # the optimal work size, which sets the blocking
            work = np.empty(max(n, int(work[0])))
        if buf.shape[1] < top + b:
            grown = np.empty((n, top + b))
            grown[:, :top] = buf[:, :top]
            buf = grown
        rows = slice(top, top + b)
        buf[0, rows] = 1.0
        np.subtract(block.T, c[:, None], out=buf[1 : q + 1, rows])
        np.subtract(y_block.T, c_y[:, None], out=buf[q + 1 :, rows])
        raw_sq_norms = raw_sq_norms + np.einsum("ij,ij->j", block, block)
        rows_seen += b
        del block  # before the next block is made
        _dgeqrf(top + b, buf, tau, work, work.size)
        top = min(top + b, n)  # a wide fit's R has fewer than n rows until it sees n
        for j in range(top):  # dgeqrf leaves Householder vectors below R's diagonal
            buf[j, j + 1 : top] = 0.0
    if rows_seen != m:
        raise ValueError(f"design has {rows_seen} rows, responses {m}")
    r = buf[:, :top].T.copy()
    del buf
    if ridge_lambda == 0.0 and m < q + 2:
        raise ValueError(f"need at least {q + 2} rows to fit {q} columns by OLS, got {m}")
    x_mean = c + r[0, 1 : q + 1] / r[0, 0]
    y_mean = c_y + r[0, q + 1 :] / r[0, 0]
    rx, z, ryy = r[1 : q + 1, 1 : q + 1], r[1 : q + 1, q + 1 :], r[q + 1 :, q + 1 :]

    # A wide design's null space, which the VIFs need, is only in the full V.
    u, sv, vt = np.linalg.svd(rx, full_matrices=rx.shape[0] < q)
    s_max = float(sv.max()) if sv.size else 0.0
    s_min = float(sv.min()) if 0 < sv.size == q else 0.0  # m <= q: centred rank < q
    cond = np.inf if s_min == 0.0 else max(s_max / s_min, 1.0)
    tol = np.finfo(np.float64).eps * max(m, q) * s_max
    if ridge_lambda == 0.0:
        if s_max == 0.0 or s_min <= tol:
            raise RankDeficientError("rank deficient; supply ridge_lambda", condition=cond)
        shrink = 1.0 / sv
    else:
        shrink = sv / (sv**2 + ridge_lambda)
    coef = (vt[: sv.size].T @ (shrink[:, None] * (u.T @ z))).T  # (p, q)
    resid = z - rx @ coef.T
    sq_norms = np.einsum("ij,ij->j", rx, rx)  # the centered design's
    return LinearFit(
        intercept=y_mean - coef @ x_mean,
        coef=coef,
        condition_number=cond,
        vifs=_vifs(sq_norms, m, sv, vt, _zero_variance(sq_norms, raw_sq_norms, m)),
        residual_mss=(np.einsum("ij,ij->j", resid, resid) + np.einsum("ij,ij->j", ryy, ryy)) / m,
    )


def _dgeqrf(rows: int, buf: np.ndarray, tau: np.ndarray, work: np.ndarray, lwork: int):
    """LAPACK dgeqrf, in place, on the first `rows` rows of the
    column-major capacity x n matrix a C-ordered (n, capacity) `buf` is."""
    n, capacity = buf.shape
    info = lapack_lite.dgeqrf(rows, n, buf, capacity, tau, work, lwork, 0)["info"]
    if info:
        raise ValueError(f"dgeqrf rejected argument {-info}")


def _zero_variance(sq_norms: np.ndarray, raw_sq_norms: np.ndarray, m: int) -> np.ndarray:
    """Columns of an m-row design whose centered squared norms `sq_norms`
    are zero up to the rounding of centering.

    A constant column whose mean does not round exactly (all 0.1) centers
    to about +-1e-17 rather than 0. A centered column norm at most m*eps
    times the norm before centering (sqrt of `raw_sq_norms`) is that
    rounding, not variance.
    """
    bound = m * np.finfo(np.float64).eps
    return sq_norms <= bound**2 * raw_sq_norms


def _vifs(
    sq_norms: np.ndarray, m: int, sv: np.ndarray, vt: np.ndarray, zero_variance: np.ndarray
) -> np.ndarray:
    """Variance inflation factors of an m-row design x = U diag(sv) vt,
    from its SVD and its squared column norms.

    VIF_j = ||x_j||^2 * sum_k vt_kj^2 / sv_k^2, the diagonal of the inverse
    Gram matrix of the column-normalized design. For a centered x this is
    1/(1 - R^2_j) of column j regressed on the others with intercept.
    Directions with a singular value at or below the rank tolerance (and
    the rows a wide design lacks) are exact null directions: they are left
    out of the sum, and a column whose weight in them would pass VIF_CUTOFF
    at the tolerance lies in the span of the others. Such columns, the
    `zero_variance` columns and values above the cutoff report VIF_SENTINEL.
    """
    s = np.zeros(vt.shape[0])
    s[: sv.size] = sv
    tol = np.finfo(np.float64).eps * max(m, vt.shape[0]) * s.max(initial=0.0)
    null = s <= tol
    inv_sq = np.zeros_like(s)
    inv_sq[~null] = 1.0 / s[~null] ** 2
    vifs = sq_norms * ((vt**2).T @ inv_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        null_vifs = sq_norms * (vt[null] ** 2).sum(axis=0) / tol**2
    ok = ~zero_variance & (vifs <= VIF_CUTOFF) & (null_vifs <= VIF_CUTOFF)
    return np.where(ok, np.maximum(vifs, 1.0), VIF_SENTINEL)


def condition_diagnostics(design) -> tuple[float, np.ndarray]:
    """Condition number and variance inflation factors of a design.

    One SVD of the centered, column-scaled design gives both. The condition
    number is its extreme singular value ratio (infinite with a
    zero-variance column, and for m <= q rows, as in `fit_linear`).
    VIF_j = 1/(1 - R^2_j) from regressing column j on the others with
    intercept; zero-variance columns, columns in an exact null direction
    and values above 1e12 report the sentinel 1e18.
    """
    x = as_matrix(design, "design")
    m, q = x.shape
    if m < 2:
        raise ValueError("need at least 2 rows for diagnostics")
    xc = x - x.mean(axis=0)
    norms = np.sqrt((xc**2).sum(axis=0))
    degenerate = _zero_variance(np.einsum("ij,ij->j", xc, xc), np.einsum("ij,ij->j", x, x), m)
    z = np.where(degenerate, 0.0, xc / np.where(degenerate, 1.0, norms))

    _, sv, vt = np.linalg.svd(z, full_matrices=m < q)
    s_max = float(sv.max()) if sv.size else 0.0
    s_min = float(sv.min()) if 0 < sv.size and m > q else 0.0  # m <= q: centred rank < q
    cond = np.inf if s_min == 0.0 or np.any(degenerate) else max(s_max / s_min, 1.0)
    return cond, _vifs(np.einsum("ij,ij->j", z, z), m, sv, vt, degenerate)
