"""Minimal dense linear algebra on float64 ndarrays: array checks and jittered SPD solves."""

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
