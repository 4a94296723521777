"""Asymptotic covariance of the linear coefficients and Wald intervals.

Under homoscedastic errors the asymptotic covariance of
sqrt(n) * (theta_hat - theta) is

    Sigma = tau * (1 - tau) * Omega^{-1} / f(0)^2

where f(0) is the residual density at zero and Omega is the covariance of
V = X - E(X | Z). Both pieces are estimated from the fitted model: f(0)
by a Gaussian kernel density estimate on the residuals, and E(X | Z) by a
least-squares network regression of each X-coordinate on Z using the same
architecture and training machinery as the main fit. For an lqr fit,
whose model is linear in Z, E(X | Z) is the exact least-squares
projection of X on [1, Z].
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, SingularMatrixError
from .model import residuals as model_residuals
from .network import forward_batch
from .normal import ndtri
from .optimizer import train_ahead, train_joint
from .rng import split

KDE_MIN_RESIDUALS = 10  # residuals `kde_at_zero`, and so an interval, needs


def kde_at_zero(res):
    """Gaussian kernel density estimate of the residual density at 0.

    Bandwidth is Silverman's rule of thumb:
    h = 0.9 * min(sd, IQR/1.34) * n^(-1/5), falling back to the sd alone
    when the IQR is 0. Needs at least KDE_MIN_RESIDUALS residuals;
    all-identical residuals make the bandwidth degenerate and raise.
    """
    res = np.asarray(res, dtype=float)
    if res.ndim != 1 or res.size < KDE_MIN_RESIDUALS:
        raise DataError(f"kde_at_zero needs at least {KDE_MIN_RESIDUALS}"
                        f" residuals, got {res.size}")
    if not np.all(np.isfinite(res)):
        raise DataError("kde_at_zero: residuals must be finite")
    sd = np.std(res, ddof=1)
    q25, q75 = np.quantile(res, [0.25, 0.75])
    spread = sd if q75 == q25 else min(sd, (q75 - q25) / 1.34)
    if spread == 0.0:
        raise DataError(
            "kde_at_zero: residuals are all identical; bandwidth degenerate")
    h = 0.9 * spread * res.size ** (-0.2)
    scaled = res / h
    return float(np.mean(np.exp(-0.5 * scaled ** 2)) / (h * np.sqrt(2.0 * np.pi)))


def fit_projection(data, k, config, rng):
    """Least-squares network regression of X_k on Z.

    Reuses the main fit's architecture and Adam machinery with squared
    error instead of check loss; the training kernel checks the rows
    against `config` as it does for a fit (`optimizer._check_rows`), and
    the config checked its fields when it was made.
    Returns the fitted NetworkParams; its predictions (forward_batch)
    estimate E(X_k | Z).
    """
    if data.q < 1:
        raise DataError("projection fits need at least one z column")
    if not 0 <= k < data.p:
        raise DataError(f"coefficient index {k} out of range for p={data.p}")
    _, params, _ = train_joint(data.x[:, k], np.zeros((data.n, 0)), data.z,
                               config, rng, tau=None)
    return params


def sym_inverse(m):
    """Inverse of a small symmetric positive definite matrix.

    Uses a Cholesky factorization m = L L', so a matrix that is not
    positive definite raises SingularMatrixError instead of returning
    garbage, and returns inv(L)' inv(L), symmetrized to remove round-off
    asymmetry.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError(f"sym_inverse needs a square matrix, got {m.shape}")
    if not np.allclose(m, m.T, rtol=1e-8, atol=1e-10):
        raise DataError("sym_inverse needs a symmetric matrix")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "matrix is not positive definite (Cholesky found a"
            " non-positive pivot)"
        ) from exc
    root = np.linalg.inv(chol)
    inv = root.T @ root
    return (inv + inv.T) / 2.0


@dataclass
class CovarianceEstimate:
    """f0_hat, Omega, Sigma, and per-coefficient Wald intervals at the
    level the caller gave `covariance`."""

    f0_hat: float
    omega_hat: np.ndarray
    sigma_hat: np.ndarray
    intervals: np.ndarray


def validate_level(level):
    """The confidence level as a float; it must be a number in (0, 1)."""
    if not isinstance(level, numbers.Real) or not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level!r}")
    return float(level)


def confidence_intervals(theta_hat, sigma_hat, n, level):
    """Wald intervals theta_k +/- z_{(1+level)/2} * sqrt(Sigma_kk / n)."""
    level = validate_level(level)
    theta_hat = np.asarray(theta_hat, dtype=float)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    diag = np.diag(sigma_hat)
    if np.any(diag < 0):
        raise DataError("covariance has a negative diagonal entry")
    z = float(ndtri(0.5 + level / 2.0))
    half = z * np.sqrt(diag / n)
    return np.column_stack([theta_hat - half, theta_hat + half])


def covariance(fit, data, config, rng, level=0.95):
    """Estimate the asymptotic covariance of theta_hat and its intervals.

    Pipeline: residuals -> f0_hat by kde_at_zero; per-coefficient
    projections -> V_i = X_i - proj(Z_i); Omega = centered sample
    covariance of V with the n-1 denominator; Sigma = tau*(1-tau) *
    Omega^{-1} / f0_hat^2.

    For an lqr fit, proj is one least-squares solve of X on [1, Z]; it
    uses neither the rng nor the config. Otherwise each projection is a
    network fit (`fit_projection`). The rng is split once per
    coefficient so projection fits have independent, reproducible
    streams. The p projections train ahead as one stack
    (`optimizer.train_ahead`), and `fit_projection` then hands each out
    in order, so each is bit for bit the one it returns alone, and when
    projections fail to train, the TrainingError of the lowest-index one
    is raised. The projections train on `config`, which checked its
    fields when it was made; the kernel checks the rows against it as it
    does for a fit. Data with no x or no z columns raise DataError: a
    dnqr fit, which is a dplqr fit with every covariate in z, has no
    coefficient to cover.
    """
    if data.p < 1 or data.q < 1:
        raise DataError("covariance needs p >= 1 and q >= 1")
    level = validate_level(level)
    res = model_residuals(fit, data)
    f0 = kde_at_zero(res)

    if fit.mode == "lqr":
        design = np.hstack([np.ones((data.n, 1)), data.z])
        coef = np.linalg.lstsq(design, data.x, rcond=None)[0]
        v = data.x - design @ coef
    else:
        v = np.empty((data.n, data.p))
        rngs = split(rng, data.p)
        with train_ahead(data.x.T, np.zeros((data.n, 0)), data.z,
                         [config] * data.p, rngs, tau=None):
            for k in range(data.p):
                proj = fit_projection(data, k, config, rngs[k])
                v[:, k] = data.x[:, k] - forward_batch(proj, data.z)

    centered = v - v.mean(axis=0)
    omega = centered.T @ centered / (data.n - 1)
    try:
        omega_inv = sym_inverse(omega)
    except SingularMatrixError as exc:
        worst = int(np.argmin(np.diag(omega)))
        raise SingularMatrixError(
            f"projection residual covariance is singular; coefficient"
            f" {worst} has variance {omega[worst, worst]:.3e} after"
            f" projecting on z") from exc
    sigma = fit.tau * (1.0 - fit.tau) * omega_inv / f0 ** 2
    intervals = confidence_intervals(fit.theta_hat, sigma, data.n, level)
    return CovarianceEstimate(f0, omega, sigma, intervals)
