"""Small dense linear-algebra and sample-statistic helpers.

Everything operates on float64 numpy arrays in row-major layout. These
routines are deliberately minimal: the only matrix inverse the package
ever needs is of a small covariance matrix, taken through a Cholesky
factorization so that non-positive-definite inputs fail loudly.
"""

import numpy as np

from .errors import DataError, SingularMatrixError


def sym_inverse(m):
    """Inverse of a small symmetric positive definite matrix.

    Uses a Cholesky factorization, so a matrix that is not positive
    definite raises SingularMatrixError instead of returning garbage.
    The result is symmetrized to remove round-off asymmetry.
    """
    from scipy.linalg import cho_solve

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
    inv = cho_solve((chol, True), np.eye(m.shape[0]))
    return (inv + inv.T) / 2.0


def sample_sd(v):
    """Sample standard deviation with the n-1 denominator."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DataError("sample_sd needs a 1-d sample with n >= 2")
    return float(np.std(v, ddof=1))


def sample_iqr(v):
    """Interquartile range using linear-interpolation (type-7) quantiles."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DataError("sample_iqr needs a 1-d sample with n >= 2")
    q25, q75 = np.quantile(v, [0.25, 0.75])
    return float(q75 - q25)
