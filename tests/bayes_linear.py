"""Optimal affine estimation of parameters from summary statistics: the
tests' independent route to the paper's estimator.

Fits the estimator a + B s minimizing the expected squared error
E[(theta - a - B s)^T (theta - a - B s)] over the joint distribution of
parameters and statistics, via empirical first and second moments. The
query E(theta) + Cov(theta, s) Var(s)^{-1} (s - E(s)) is the adjusted
expectation of theta given s. On a Monte Carlo batch this coincides with
ordinary least squares of theta on s, so `semiabc.regression.fit_linear`,
the pipeline's one affine estimator, must reproduce it; the acceptance
criteria check that equivalence against this module, which shares no
code path with the fit.

Expectations are always with respect to whatever distribution generated
the fitted batch; batches drawn from a truncated prior therefore need no
special handling here. Sums over sample rows are made order-canonical
(sort, then numpy's fixed pairwise reduction), so the sample moments are
bitwise invariant under row permutation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from semiabc.linalg import as_matrix, as_vector, solve_spd

# Relative slack allowed between the stored intercept and
# mean_theta - coef @ mean_s.
_INTERCEPT_RTOL = 1e-10


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


@dataclass(frozen=True)
class BayesLinearModel:
    """Fitted affine estimator together with the moments that produced it.

    Moments are stored at fit time and reused for every query; refitting
    is explicit. `n_fit` is None for models built from closed-form moments
    rather than a simulation batch. `jitter` is the `linalg.JITTER_LADDER`
    level the solve for `coef` added to `var_s` (0.0 when none was needed).
    """

    intercept: np.ndarray  # (p,)
    coef: np.ndarray  # (p, d)
    mean_theta: np.ndarray  # (p,)
    mean_s: np.ndarray  # (d,)
    var_s: np.ndarray  # (d, d)
    cov_theta_s: np.ndarray  # (p, d)
    var_theta: np.ndarray  # (p, p)
    n_fit: int | None = None
    jitter: float = 0.0

    def __post_init__(self):
        p, d = self.coef.shape
        reconstructed = self.mean_theta - self.coef @ self.mean_s
        scale = max(1.0, float(np.max(np.abs(self.mean_theta), initial=0.0)))
        if np.max(np.abs(self.intercept - reconstructed), initial=0.0) > _INTERCEPT_RTOL * scale:
            raise ValueError("intercept inconsistent with stored moments")
        if np.max(np.abs(self.var_s - self.var_s.T), initial=0.0) > 1e-8 * max(
            1.0, float(np.max(np.abs(self.var_s), initial=0.0))
        ):
            raise ValueError("var_s must be symmetric")
        if self.n_fit is not None and self.n_fit < d + 2:
            raise ValueError(f"n_fit={self.n_fit} too small for {d} statistics")

    @property
    def param_dim(self) -> int:
        return self.coef.shape[0]

    @property
    def stat_dim(self) -> int:
        return self.coef.shape[1]


def from_moments(mean_theta, mean_s, var_theta, var_s, cov_theta_s) -> BayesLinearModel:
    """Build the optimal affine estimator from externally supplied moments."""
    mean_theta = as_vector(mean_theta, "mean_theta")
    mean_s = as_vector(mean_s, "mean_s")
    var_theta = as_matrix(var_theta, "var_theta")
    var_s = as_matrix(var_s, "var_s")
    cov_theta_s = as_matrix(cov_theta_s, "cov_theta_s")
    coef_t, jitter = solve_spd(var_s, cov_theta_s.T)
    coef = coef_t.T
    return BayesLinearModel(
        intercept=mean_theta - coef @ mean_s,
        coef=coef,
        mean_theta=mean_theta,
        mean_s=mean_s,
        var_s=var_s,
        cov_theta_s=cov_theta_s,
        var_theta=var_theta,
        n_fit=None,
        jitter=jitter,
    )


def fit_bayes_linear(batch) -> BayesLinearModel:
    """Fit a + B s to a simulation batch of paired (theta, s) draws.

    B solves B Var(s) = Cov(theta, s) on the empirical moments through the
    jittered SPD solver; no covariance matrix is ever inverted explicitly.
    """
    thetas = as_matrix(batch.thetas, "thetas")
    stats = as_matrix(batch.stats, "stats")
    m, d = stats.shape
    if m < d + 2:
        raise ValueError(f"insufficient draws for {d} statistics: got {m}, need {d + 2}")
    model = from_moments(
        mean_theta=sample_mean(thetas),
        mean_s=sample_mean(stats),
        var_theta=sample_cov(thetas, thetas),
        var_s=sample_cov(stats, stats),
        cov_theta_s=sample_cov(thetas, stats),
    )
    return replace(model, n_fit=m)


def adjusted_expectation(model: BayesLinearModel, s) -> np.ndarray:
    """E(theta) + Cov(theta,s) Var(s)^{-1} (s - E(s)) at a query statistic."""
    sv = as_vector(s, "s")
    if sv.shape[0] != model.stat_dim:
        raise ValueError(f"statistic has length {sv.shape[0]}, model expects {model.stat_dim}")
    return model.mean_theta + model.coef @ (sv - model.mean_s)


def criterion_value(intercept, coef, batch) -> float:
    """Monte Carlo value of the expected squared estimation error.

    (1/M) sum_m ||theta_m - a - B s_m||^2; the fitted model minimizes this
    over all affine (a, B), which the suite verifies by perturbation.
    """
    a = as_vector(intercept, "intercept")
    b = as_matrix(coef, "coef")
    thetas = as_matrix(batch.thetas, "thetas")
    stats = as_matrix(batch.stats, "stats")
    if b.shape != (thetas.shape[1], stats.shape[1]):
        raise ValueError(
            f"coef shape {b.shape} inconsistent with batch dims "
            f"({thetas.shape[1]}, {stats.shape[1]})"
        )
    if a.shape[0] != thetas.shape[1]:
        raise ValueError("intercept length inconsistent with parameter dimension")
    resid = thetas - a - stats @ b.T
    return float(np.mean(np.einsum("ij,ij->i", resid, resid)))


def adjusted_variance(model: BayesLinearModel) -> np.ndarray:
    """Var(theta) - Cov(theta,s) Var(s)^{-1} Cov(s,theta), symmetrized.

    Diagnostic companion to the adjusted expectation. Eigenvalues below
    -1e-8 indicate mutually inconsistent moments and raise a warning.
    """
    out = model.var_theta - model.coef @ model.cov_theta_s.T
    out = 0.5 * (out + out.T)
    min_eig = float(np.min(np.linalg.eigvalsh(out)))
    if min_eig < -1e-8:
        warnings.warn(
            f"adjusted variance has eigenvalue {min_eig:.3e} < -1e-8; "
            "the supplied moments are mutually inconsistent",
            stacklevel=2,
        )
    return out

