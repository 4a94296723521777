"""Synthetic benchmark scenarios.

Covariates come from a 12-dimensional Gaussian copula on [0, 2] with
exchangeable correlation 0.5: Z is the first ten coordinates, X_1 is the
indicator that coordinate 11 exceeds 1, and X_2 is coordinate 12. Noise
is Student t with 3 degrees of freedom. Six cases define the response:

    cases 1-3:  Y = x @ theta + m_case(z) + eps            (constant scale)
    cases 4-6:  Y = x @ theta + m_case(z) + sigma1 * eps   (covariate scale)

where case c in 4-6 uses the mean function of case c-3 and a positive
scale function sigma1(x, z). The scale function is additive in an x part
and a z part, so the true tau-quantile of Y decomposes back into a linear
coefficient theta + t * theta_star and a z-function m + t * m_star, with
t the tau-quantile of the noise. `true_theta`, `true_m`, and
`true_quantile` expose that decomposition for evaluating estimates.

The published form of the scale functions sums the x covariates as
"x1 + x1", which reads as a typo for x1 + x2; both interpretations are
implemented and selected by DgpSpec.sigma_x_terms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import Dataset
from .normal import ndtr
from .quantile_loss import validate_tau
from .rng import std_normal

COPULA_DIM = 12
Z_DIM = 10
X_SUM_READINGS = ("x1+x2", "2x1")
THETA = (1.0, -1.0)  # the linear coefficients of every case


@dataclass(frozen=True)
class DgpSpec:
    """One benchmark setting: case in 1..6, sample size, quantile level.

    The linear coefficients are THETA in every case. sigma_x_terms picks
    how the scale function's x covariates are summed in cases 4-6:
    "x1+x2" (default) or literally "2x1".
    """

    case: int
    n: int
    tau: float = 0.5
    sigma_x_terms: str = "x1+x2"

    def __post_init__(self):
        if (isinstance(self.case, bool)
                or not isinstance(self.case, (int, np.integer))
                or self.case not in (1, 2, 3, 4, 5, 6)):
            raise ConfigError(
                f"case must be an integer 1..6, got {self.case!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 50:
            raise ConfigError(f"n must be an integer >= 50, got {self.n!r}")
        validate_tau(self.tau)
        if self.sigma_x_terms not in X_SUM_READINGS:
            raise ConfigError(
                f"sigma_x_terms must be one of {X_SUM_READINGS},"
                f" got {self.sigma_x_terms!r}")


def sample_copula(n, dim, rho, rng):
    """Gaussian-copula draws with uniform [0, 2] marginals.

    Latent normals have an exchangeable correlation matrix (1 on the
    diagonal, rho off it), sampled through its Cholesky factor; each
    coordinate is then mapped through 2 * Phi(.).
    """
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    low = -1.0 / (dim - 1) if dim > 1 else -1.0
    if not low < rho < 1.0:
        raise ConfigError(
            f"rho must lie in ({low:.4f}, 1) for dim={dim}, got {rho}")
    corr = np.full((dim, dim), float(rho))
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    w = std_normal(rng, (n, dim)) @ chol.T
    return 2.0 * ndtr(w)


def sample_t3(n, rng):
    """Student-t draws with 3 degrees of freedom.

    Each variate is z0 / sqrt((z1^2 + z2^2 + z3^2) / 3) from four normal
    draws, so the stream consumes a fixed amount of randomness per value.
    """
    z = std_normal(rng, (int(n), 4))
    chi2 = z[:, 1] ** 2 + z[:, 2] ** 2 + z[:, 3] ** 2
    return z[:, 0] / np.sqrt(chi2 / 3.0)


def make_covariates(copula_draws):
    """Split 12 copula columns into (X: n x 2, Z: n x 10)."""
    draws = np.asarray(copula_draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != COPULA_DIM:
        raise DataError(
            f"expected {COPULA_DIM} copula columns, got shape {draws.shape}")
    z = draws[:, :Z_DIM].copy()
    x = np.column_stack([(draws[:, 10] > 1.0).astype(float), draws[:, 11]])
    return x, z


def _check_z(z):
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != Z_DIM:
        raise DataError(f"z must have {Z_DIM} coordinates, got {z.shape}")
    return z


def m_case(case, z):
    """Mean function of cases 1-3; vectorized over rows of z."""
    z = _check_z(z)
    scalar = z.ndim == 1
    zz = np.atleast_2d(z)
    c = zz.T  # c[k] is coordinate k+1 across rows
    if case == 1:
        out = 0.95 * zz.sum(axis=1)
    elif case == 2:
        out = 1.1 * (
            c[0] ** 3 - 3.0 * c[1] ** 2 + 2.0 * np.sin(6.0 * np.pi * c[2])
            + np.log(c[3] + 0.5) + np.sqrt(c[4] + 2.0) + np.exp(c[5] / 2.0)
            + 0.5 * (c[6] - 1.0 + np.abs(c[6] - 1.0)) + 1.0 / (c[7] + 2.0)
            + 2.0 * np.exp(-c[8] / 2.0) + np.cos(np.pi * c[9])
        )
    elif case == 3:
        out = 0.51 * (
            c[0] * c[1]
            + c[1] * (1.0 - np.cos(np.pi * c[2] * c[3]))
            + 2.0 * np.sin(c[4]) / (np.abs(c[4] - c[5]) + 2.0)
            + (c[5] + c[6] * c[7] - 1.0) ** 2
            + np.sqrt(c[8] ** 2 + c[9] ** 2 + 2.0)
            + np.exp((zz - 1.0).sum(axis=1) / 5.0)
        )
    else:
        raise ConfigError(f"m_case covers cases 1-3, got {case}")
    return float(out[0]) if scalar else out


def _x_sum(x, reading):
    if reading == "2x1":
        return 2.0 * x[..., 0]
    return x[..., 0] + x[..., 1]


def _theta_star(case, reading):
    denom = {4: 5.0, 5: 3.6, 6: 3.0}[case]
    pair = np.array([2.0, 0.0]) if reading == "2x1" else np.array([1.0, 1.0])
    return pair / denom


def sigma1_case(case, x, z, sigma_x_terms="x1+x2"):
    """Scale function of cases 4-6; vectorized over rows."""
    if case not in (4, 5, 6):
        raise ConfigError(f"sigma1_case covers cases 4-6, got {case}")
    if sigma_x_terms not in X_SUM_READINGS:
        raise ConfigError(f"unknown sigma_x_terms {sigma_x_terms!r}")
    z = _check_z(z)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise DataError(f"x must have 2 coordinates, got {x.shape}")
    scalar = z.ndim == 1
    zz = np.atleast_2d(z)
    xx = np.atleast_2d(x)
    xsum = _x_sum(xx, sigma_x_terms)
    if case == 4:
        out = (xsum + zz.sum(axis=1)) / 5.0
    elif case == 5:
        out = (xsum + np.abs(zz - 0.2).sum(axis=1)) / 3.6
    else:
        out = xsum / 3.0 + 3.0 * ndtr((zz - 1.0).sum(axis=1) / 5.0)
    return float(out[0]) if scalar else out


def t3_cdf(t):
    """Closed-form CDF of the t distribution with 3 degrees of freedom."""
    t = np.asarray(t, dtype=float)
    s = t / np.sqrt(3.0)
    out = 0.5 + (np.arctan(s) + s / (1.0 + s * s)) / np.pi
    return float(out) if out.ndim == 0 else out


def t3_quantile(tau):
    """Quantile of the t distribution with 3 degrees of freedom.

    Bisection on the closed-form CDF to an interval width of 1e-10;
    tau = 0.5 returns exactly 0 and the lower tail uses antisymmetry.
    """
    tau = validate_tau(tau)
    if tau == 0.5:
        return 0.0
    if tau < 0.5:
        return -t3_quantile(1.0 - tau)
    lo, hi = 0.0, 1.0
    while t3_cdf(hi) < tau:
        hi *= 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if t3_cdf(mid) < tau:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def true_theta(spec):
    """Linear coefficients of the tau-quantile of Y under `spec`."""
    theta = np.array(THETA)
    if spec.case <= 3:
        return theta
    t = t3_quantile(spec.tau)
    return theta + t * _theta_star(spec.case, spec.sigma_x_terms)


def true_m(spec, z):
    """z-function of the tau-quantile of Y under `spec` (rows of z)."""
    z = _check_z(np.atleast_2d(np.asarray(z, dtype=float)))
    t = t3_quantile(spec.tau)
    if spec.case <= 3:
        return m_case(spec.case, z) + t
    # the scale at x = 0 is its z part exactly: 0.0 + s and 0.0 / 3.0 + v
    # are s and v
    scale = sigma1_case(spec.case, np.zeros((len(z), 2)), z,
                        spec.sigma_x_terms)
    return m_case(spec.case - 3, z) + t * scale


def true_quantile(spec, x, z):
    """Exact tau-quantile of Y at covariates (x, z) under `spec`."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    theta = np.array(THETA)
    t = t3_quantile(spec.tau)
    lin = x @ theta
    if spec.case <= 3:
        return lin + m_case(spec.case, z) + t
    return (lin + m_case(spec.case - 3, z)
            + t * sigma1_case(spec.case, x, z, spec.sigma_x_terms))


def generate(spec, rng):
    """Draw one dataset of size spec.n from the benchmark design."""
    draws = sample_copula(spec.n, COPULA_DIM, 0.5, rng)
    x, z = make_covariates(draws)
    eps = sample_t3(spec.n, rng)
    theta = np.array(THETA)
    if spec.case <= 3:
        y = x @ theta + m_case(spec.case, z) + eps
    else:
        scale = sigma1_case(spec.case, x, z, spec.sigma_x_terms)
        y = x @ theta + m_case(spec.case - 3, z) + scale * eps
    return Dataset(y, x, z)


def rmse_m(m_hat_values, m_true_values):
    """Relative mean squared error sum((mhat - m)^2) / sum(m^2)."""
    m_hat = np.asarray(m_hat_values, dtype=float)
    m_true = np.asarray(m_true_values, dtype=float)
    if m_hat.shape != m_true.shape or m_hat.ndim != 1:
        raise DataError(
            f"rmse_m needs equal-length vectors, got {m_hat.shape}"
            f" and {m_true.shape}")
    if m_hat.size == 0:
        raise DataError("rmse_m of empty vectors")
    denom = float(np.sum(m_true ** 2))
    if denom == 0.0:
        raise DataError("rmse_m denominator is zero (true m vanishes)")
    return float(np.sum((m_hat - m_true) ** 2) / denom)


def mspe(y_hat, y):
    """Mean squared prediction error."""
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_hat.shape != y.shape or y_hat.ndim != 1:
        raise DataError(
            f"mspe needs equal-length vectors, got {y_hat.shape}"
            f" and {y.shape}")
    if y.size == 0:
        raise DataError("mspe of empty vectors")
    return float(np.mean((y_hat - y) ** 2))
