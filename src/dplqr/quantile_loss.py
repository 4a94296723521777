"""Check (pinball) loss: the objective kernel of quantile regression.

For quantile level tau in (0, 1), the check loss

    rho_tau(t) = t * psi_tau(t),   with score psi_tau(t) = tau - 1{t < 0},

is nonnegative, equals tau*t for t >= 0 and (tau-1)*t for t < 0, and its
population minimizer over a constant predictor is the tau-quantile.
"""

import numbers

import numpy as np

from .errors import ConfigError, DataError


def validate_tau(tau):
    """Return tau as a float, requiring a number with 0 < tau < 1."""
    if not isinstance(tau, numbers.Real) or not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie strictly inside (0, 1), got {tau!r}")
    return float(tau)


def check_score(t, tau):
    """psi_tau(t) = tau - 1{t < 0}, the score of rho_tau (Koenker 2005)."""
    return tau - (t < 0.0)


def check_loss(t, tau):
    """rho_tau(t); vectorized over t."""
    tau = validate_tau(tau)
    t = np.asarray(t, dtype=float)
    out = t * check_score(t, tau)
    return float(out) if out.ndim == 0 else out


def mean_check_loss(residuals, tau):
    """Average check loss of a residual vector."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise DataError("mean_check_loss of an empty residual vector")
    return float(np.mean(check_loss(r, tau)))
