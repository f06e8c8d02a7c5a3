"""Minimal dense linear algebra: means, cross-covariances, and SPD solves.

Everything here is pure and operates on plain float64 ndarrays. Sums over
sample rows are made order-canonical (sort, then numpy's fixed pairwise
reduction) so that means and covariances are bitwise invariant under row
permutation and independent of any upstream parallel schedule.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# Jitter ladder for near-singular SPD systems: each level adds
# lam * mean(diag(A)) * I before retrying the factorization. Degenerate
# summary covariances occur by design in the multicollinearity studies,
# so this is a first-class code path, not an afterthought.
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

# Relative residual bound a returned SPD solution must satisfy w.r.t. the
# original (unjittered) matrix.
SOLVE_RESIDUAL_RTOL = 1e-8


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array and require finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float64 array and require finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _ordered_sum(values: np.ndarray) -> float:
    # Canonical-order pairwise sum. `+ 0.0` maps -0.0 to +0.0 so the sorted
    # sequence is bit-identical for any permutation of the same multiset.
    return float(np.sum(np.sort(values + 0.0)))


def sample_mean(samples) -> np.ndarray:
    """Column means of an (M, k) sample matrix, permutation-stable."""
    x = as_matrix(samples, "samples")
    if x.shape[0] < 1:
        raise ValueError("no samples")
    m = x.shape[0]
    return np.array([_ordered_sum(x[:, j]) / m for j in range(x.shape[1])])


def sample_cov(x, y) -> np.ndarray:
    """Sample cross-covariance of (M, p) and (M, d) matrices.

    Entry (i, j) is sum_m (x_mi - xbar_i)(y_mj - ybar_j) / (M - 1). The
    product multiset for (i, j) under x,y equals the one for (j, i) under
    y,x, so sample_cov(x, y) == sample_cov(y, x).T bitwise.
    """
    xa = as_matrix(x, "x")
    ya = as_matrix(y, "y")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(
            f"covariance inputs disagree on sample count: {xa.shape[0]} vs {ya.shape[0]}"
        )
    m = xa.shape[0]
    if m < 2:
        raise ValueError("covariance needs >=2 samples")
    xc = xa - sample_mean(xa)
    yc = ya - sample_mean(ya)
    p, d = xa.shape[1], ya.shape[1]
    out = np.empty((p, d))
    for i in range(p):
        col = xc[:, i]
        for j in range(d):
            out[i, j] = _ordered_sum(col * yc[:, j]) / (m - 1)
    return out


def _condition_estimate(a: np.ndarray) -> float:
    vals = np.abs(np.linalg.eigvalsh(0.5 * (a + a.T)))
    if vals.size == 0:
        return 1.0
    hi = float(vals.max())
    lo = float(vals.min())
    return np.inf if lo == 0.0 else hi / lo


def solve_spd(a, b) -> tuple[np.ndarray, float]:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Never forms an explicit inverse. If the plain factorization fails or
    the solution's residual against the *original* A is poor, retries up
    the jitter ladder; raises SingularMatrixError once exhausted. Returns
    X together with the ladder level it applied (0.0 when A needed none).
    """
    aa = as_matrix(a, "a")
    k = aa.shape[0]
    if aa.shape[1] != k:
        raise ValueError(f"a must be square, got {aa.shape}")
    bb = np.asarray(b, dtype=np.float64)
    b2 = bb.reshape(k, -1) if bb.ndim == 1 else bb
    if b2.shape[0] != k:
        raise ValueError(f"b has {b2.shape[0]} rows, expected {k}")
    asym = float(np.max(np.abs(aa - aa.T), initial=0.0))
    if asym > 1e-8 * max(1.0, float(np.max(np.abs(aa), initial=0.0))):
        raise ValueError("a is not symmetric")

    scale = float(np.mean(np.diag(aa))) if k else 0.0
    b_norm = float(np.max(np.abs(b2), initial=0.0))
    for lam in JITTER_LADDER:
        aj = aa if lam == 0.0 else aa + (lam * scale) * np.eye(k)
        try:
            factor = np.linalg.cholesky(aj)
        except np.linalg.LinAlgError:
            continue
        x = np.linalg.solve(factor.T, np.linalg.solve(factor, b2))
        residual = float(np.max(np.abs(aa @ x - b2), initial=0.0))
        if residual <= SOLVE_RESIDUAL_RTOL * b_norm:
            return (x.reshape(bb.shape) if bb.ndim == 1 else x), lam
    raise SingularMatrixError(
        "singular statistic covariance", condition=_condition_estimate(aa)
    )
