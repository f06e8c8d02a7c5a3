"""Design-matrix construction, (ridge) least squares, and collinearity diagnostics.

The least squares path deliberately mirrors the optimal-affine-estimator
fit in `bayes_linear`: with no penalty, regressing parameters on raw
statistics reproduces that module's intercept and coefficient matrix,
and this equivalence is property-tested rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError, RankDeficientError
# solve_spd is unused here but stays importable: the benchmark tracer patches it by name.
from .linalg import as_matrix, solve_spd  # noqa: F401

# Computed VIFs above this are reported as the numerical-infinity sentinel.
VIF_CUTOFF = 1e12
VIF_SENTINEL = 1e18

BASIS_KINDS = ("identity", "polynomial", "powers", "custom")

# Registry for named custom basis maps: name -> callable (M, d) -> (M, q).
CUSTOM_BASES: dict[str, Callable[[np.ndarray], np.ndarray]] = {}


@dataclass(frozen=True)
class BasisSpec:
    """How raw statistics are expanded before a regression fit.

    kind "identity" passes statistics through; "polynomial" emits all
    monomials of total degree 1..degree; "powers" emits the listed
    exponent-vector monomials in the listed order; "custom" looks up a
    registered map by name.
    """

    kind: str = "identity"
    degree: int | None = None
    exponents: tuple[tuple[int, ...], ...] | None = None
    name: str | None = None
    include_intercept: bool = True

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ConfigError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial":
            if self.degree is None or self.degree < 1:
                raise ConfigError("polynomial basis requires degree >= 1")
        if self.kind == "powers":
            if not self.exponents:
                raise ConfigError("powers basis requires a nonempty exponent list")
            for exps in self.exponents:
                if any(e < 0 for e in exps):
                    raise ConfigError("power exponents must be nonnegative")
        if self.kind == "custom" and not self.name:
            raise ConfigError("custom basis requires a registered name")


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


def expand_design(stats, spec: BasisSpec) -> np.ndarray:
    """Expand an (M, d) statistic matrix to the (M, q) design of `spec`.

    The column order is total and deterministic: equal inputs give
    bitwise-equal outputs.
    """
    s = as_matrix(stats, "stats")
    if spec.kind == "identity":
        return s.copy()
    if spec.kind == "custom":
        try:
            fn = CUSTOM_BASES[spec.name]
        except KeyError:
            raise ConfigError(f"custom basis {spec.name!r} is not registered") from None
        out = np.asarray(fn(s), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"custom basis {spec.name!r} produced non-finite values")
        return out
    if spec.kind == "polynomial":
        exponents = monomial_exponents(s.shape[1], spec.degree)
    else:
        exponents = [tuple(e) for e in spec.exponents]
        for exps in exponents:
            if len(exps) != s.shape[1]:
                raise ConfigError(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"statistics have dimension {s.shape[1]}"
                )
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


def expand_basis(s, spec: BasisSpec) -> np.ndarray:
    """Expand a single d-vector of statistics to its q-vector of features."""
    v = np.asarray(s, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a statistic vector, got shape {v.shape}")
    return expand_design(v.reshape(1, -1), spec)[0]


@dataclass(frozen=True)
class LinearFit:
    """A fitted (possibly ridge-penalized) multi-response linear model."""

    intercept: np.ndarray  # (p,)
    coef: np.ndarray  # (p, q)
    residual_mss: np.ndarray  # (p,) mean squared residual per response
    condition_number: float  # extreme singular value ratio of the design fitted
    vifs: np.ndarray  # (q,) of the design fitted
    ridge_lambda: float = 0.0
    weighted: bool = field(default=False, compare=False)

    def __post_init__(self):
        if np.any(self.residual_mss < 0):
            raise ValueError("residual_mss must be nonnegative")
        if self.condition_number < 1.0:
            raise ValueError("condition_number must be >= 1")


def _weighted_mean(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (w[:, None] * x).sum(axis=0) / w.sum()


def fit_linear(design, responses, ridge_lambda: float = 0.0, *, weights=None,
               intercept: bool = True) -> LinearFit:
    """Least squares of (M, p) responses on an (M, q) design.

    Minimizes sum_m w_m ||y_m - a - B x_m||^2 + ridge_lambda ||B||_F^2 with
    the intercept handled by centering and never penalized. Solved through
    the SVD of the centered (and sqrt-weight scaled) design. With
    ridge_lambda = 0 a rank-deficient design is an error rather than a
    silent pseudo-inverse.

    The condition number and the VIFs come from that same SVD, so they
    describe the design fitted: sqrt-weight scaled, and centered only with
    an intercept. VIFs above 1e12, of zero-variance columns and of columns
    in an exact null direction report the sentinel 1e18.
    """
    x = as_matrix(design, "design")
    y = as_matrix(responses, "responses")
    m, q = x.shape
    if y.shape[0] != m:
        raise ValueError(f"design has {m} rows, responses {y.shape[0]}")
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    if ridge_lambda == 0.0 and m < q + 2:
        raise ValueError(f"need at least {q + 2} rows to fit {q} columns by OLS, got {m}")
    if m < 2:
        raise ValueError("need at least 2 rows")

    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,) or np.any(w < 0) or not np.all(np.isfinite(w)) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative, finite, with positive sum")
    else:
        w = np.ones(m)

    if intercept:
        x_mean = _weighted_mean(x, w)
        y_mean = _weighted_mean(y, w)
        xc = x - x_mean
        yc = y - y_mean
    else:
        x_mean = np.zeros(q)
        y_mean = np.zeros(y.shape[1])
        xc = x
        yc = y
    sqrt_w = np.sqrt(w)[:, None]
    xw = xc * sqrt_w
    yw = yc * sqrt_w

    # A wide design's null space, which the VIFs need, is only in the full V.
    u, sv, vt = np.linalg.svd(xw, full_matrices=m < q)
    s_max = float(sv.max()) if sv.size else 0.0
    s_min = float(sv.min()) if sv.size else 0.0
    cond = np.inf if s_min == 0.0 else max(s_max / s_min, 1.0)
    tol = np.finfo(np.float64).eps * max(m, q) * s_max
    if ridge_lambda == 0.0:
        if s_max == 0.0 or s_min <= tol:
            raise RankDeficientError("rank deficient; supply ridge_lambda", condition=cond)
        shrink = 1.0 / sv
    else:
        shrink = sv / (sv**2 + ridge_lambda)
    coef = (vt[: sv.size].T @ (shrink[:, None] * (u.T @ yw))).T  # (p, q)
    alpha = y_mean - coef @ x_mean if intercept else np.zeros(y.shape[1])

    resid = y - alpha - x @ coef.T
    residual_mss = (w[:, None] * resid**2).sum(axis=0) / w.sum()
    return LinearFit(
        intercept=alpha,
        coef=coef,
        residual_mss=np.maximum(residual_mss, 0.0),
        condition_number=cond,
        vifs=_vifs(xw, sv, vt, _zero_variance(xw, np.einsum("i,ij,ij->j", w, x, x))),
        ridge_lambda=float(ridge_lambda),
        weighted=weights is not None,
    )


def _zero_variance(centered: np.ndarray, raw_sq_norms: np.ndarray) -> np.ndarray:
    """Columns of a centered design that are zero up to the rounding of centering.

    A constant column whose mean does not round exactly (all 0.1) centers
    to about +-1e-17 rather than 0. A centered column norm at most m*eps
    times the norm before centering (sqrt of `raw_sq_norms`) is that
    rounding, not variance.
    """
    bound = centered.shape[0] * np.finfo(np.float64).eps
    return np.einsum("ij,ij->j", centered, centered) <= bound**2 * raw_sq_norms


def _vifs(
    x: np.ndarray, sv: np.ndarray, vt: np.ndarray, zero_variance: np.ndarray
) -> np.ndarray:
    """Variance inflation factors of a design x = U diag(sv) vt, from its SVD.

    VIF_j = ||x_j||^2 * sum_k vt_kj^2 / sv_k^2, the diagonal of the inverse
    Gram matrix of the column-normalized design. For a centered x this is
    1/(1 - R^2_j) of column j regressed on the others with intercept.
    Directions with a singular value at or below the rank tolerance (and
    the rows a wide design lacks) are exact null directions: they are left
    out of the sum, and a column whose weight in them would pass VIF_CUTOFF
    at the tolerance lies in the span of the others. Such columns, the
    `zero_variance` columns and values above the cutoff report VIF_SENTINEL.
    """
    m, q = x.shape
    s = np.zeros(vt.shape[0])
    s[: sv.size] = sv
    tol = np.finfo(np.float64).eps * max(m, q) * s.max(initial=0.0)
    null = s <= tol
    inv_sq = np.zeros_like(s)
    inv_sq[~null] = 1.0 / s[~null] ** 2
    sq_norms = np.einsum("ij,ij->j", x, x)
    vifs = sq_norms * ((vt**2).T @ inv_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        null_vifs = sq_norms * (vt[null] ** 2).sum(axis=0) / tol**2
    ok = ~zero_variance & (vifs <= VIF_CUTOFF) & (null_vifs <= VIF_CUTOFF)
    return np.where(ok, np.maximum(vifs, 1.0), VIF_SENTINEL)


def condition_diagnostics(design) -> tuple[float, np.ndarray]:
    """Condition number and variance inflation factors of a design.

    One SVD of the centered, column-scaled design gives both. The condition
    number is its extreme singular value ratio (infinite with a
    zero-variance column). VIF_j = 1/(1 - R^2_j) from regressing column j
    on the others with intercept; zero-variance columns, columns in an exact
    null direction and values above 1e12 report the sentinel 1e18.
    """
    x = as_matrix(design, "design")
    m, q = x.shape
    if m < 2:
        raise ValueError("need at least 2 rows for diagnostics")
    xc = x - x.mean(axis=0)
    norms = np.sqrt((xc**2).sum(axis=0))
    degenerate = _zero_variance(xc, np.einsum("ij,ij->j", x, x))
    z = np.where(degenerate, 0.0, xc / np.where(degenerate, 1.0, norms))

    _, sv, vt = np.linalg.svd(z, full_matrices=m < q)
    s_max = float(sv.max()) if sv.size else 0.0
    s_min = float(sv.min()) if sv.size else 0.0
    cond = np.inf if s_min == 0.0 or np.any(degenerate) else max(s_max / s_min, 1.0)
    return cond, _vifs(z, sv, vt, degenerate)
