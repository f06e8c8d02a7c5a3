"""Optimal affine estimation of parameters from summary statistics.

Fits the estimator a + B s minimizing the expected squared error
E[(theta - a - B s)^T (theta - a - B s)] over the joint distribution of
parameters and statistics, via empirical first and second moments. The
query E(theta) + Cov(theta, s) Var(s)^{-1} (s - E(s)) is the adjusted
expectation of theta given s. On a Monte Carlo batch this coincides with
ordinary least squares of theta on s; the regression module's fit must
reproduce it and the test suite checks that equivalence.

Expectations are always with respect to whatever distribution generated
the fitted batch; batches drawn from a truncated prior therefore need no
special handling here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, sample_cov, sample_mean, solve_spd

# Relative slack allowed between the stored intercept and
# mean_theta - coef @ mean_s.
_INTERCEPT_RTOL = 1e-10


@dataclass(frozen=True)
class BayesLinearModel:
    """Fitted affine estimator together with the moments that produced it.

    Moments are stored at fit time and reused for every query; refitting
    is explicit. `n_fit` is None for models built from closed-form moments
    rather than a simulation batch.
    """

    intercept: np.ndarray  # (p,)
    coef: np.ndarray  # (p, d)
    mean_theta: np.ndarray  # (p,)
    mean_s: np.ndarray  # (d,)
    var_s: np.ndarray  # (d, d)
    cov_theta_s: np.ndarray  # (p, d)
    var_theta: np.ndarray  # (p, p)
    n_fit: int | None = None

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
    coef = solve_spd(var_s, cov_theta_s.T).T
    return BayesLinearModel(
        intercept=mean_theta - coef @ mean_s,
        coef=coef,
        mean_theta=mean_theta,
        mean_s=mean_s,
        var_s=var_s,
        cov_theta_s=cov_theta_s,
        var_theta=var_theta,
        n_fit=None,
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
    mean_theta = sample_mean(thetas)
    mean_s = sample_mean(stats)
    var_s = sample_cov(stats, stats)
    cov_theta_s = sample_cov(thetas, stats)
    var_theta = sample_cov(thetas, thetas)
    coef = solve_spd(var_s, cov_theta_s.T).T
    return BayesLinearModel(
        intercept=mean_theta - coef @ mean_s,
        coef=coef,
        mean_theta=mean_theta,
        mean_s=mean_s,
        var_s=var_s,
        cov_theta_s=cov_theta_s,
        var_theta=var_theta,
        n_fit=m,
    )


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

