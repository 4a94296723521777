"""Exact linear quantile regression by an interior-point method.

`rq(X, y, tau)` minimizes the check loss sum_i rho_tau(y_i - X_i @ beta)
over beta. It solves the bounded dual linear program

    max y @ a   subject to   X.T @ a = (1 - tau) * X.T @ 1,   0 <= a <= 1

by the Frisch-Newton interior-point method with Mehrotra's
predictor-corrector steps (Portnoy and Koenker 1997, "The Gaussian hare
and the Laplacian tortoise"; Koenker, *Quantile Regression*, 2005,
ch. 6). beta is the multiplier of the equality constraints, and the
slacks z, w >= 0 of the bounds a >= 0 and a <= 1 satisfy
w - z = y - X @ beta. Every iterate is feasible for both programs, so
the duality gap a @ z + (1 - a) @ w is how far the check loss at beta
lies above its minimum. Each iteration factors one k x k matrix,
X.T @ diag(d) @ X, for the two steps.
"""

import numpy as np

from .errors import DataError, SingularMatrixError, TrainingError
from .quantile_loss import check_score, validate_tau

MAX_ITERATIONS = 100
# The loop stops once the duality gap is below GAP_TOL times the check
# loss plus mean |y|; the mean keeps the test meaningful when the loss
# nears 0. At 1e-12 beta agrees with HiGHS to 1e-9 on the package's
# scenarios, in 9-22 iterations.
GAP_TOL = 1e-12
STEP = 0.99995  # share of the way to the nearest bound a step may go


def _step_length(v, dv):
    """The largest t <= 1 keeping v + t * dv >= 0, times STEP."""
    shrinking = dv < 0.0
    if not shrinking.any():
        return 1.0
    return min(1.0, STEP * float(np.min(v[shrinking] / -dv[shrinking])))


def rq(X, y, tau):
    """The tau-th linear quantile regression of y on the columns of X.

    X is (n, k) and carries its own intercept column, if any. Returns
    (beta, a): the (k,) coefficients and the (n,) dual solution, with
    0 <= a <= 1 and X.T @ a = (1 - tau) * X.T @ 1; at the optimum a_i
    is 1 where y_i lies above the fit and 0 where it lies below. Fewer
    rows than columns raise DataError, a design without full column rank
    raises SingularMatrixError, and a gap still open after
    MAX_ITERATIONS iterations raises TrainingError.
    """
    tau = validate_tau(tau)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DataError(f"rq needs X of shape (n, k) and y of shape (n,),"
                        f" got {X.shape} and {y.shape}")
    n, k = X.shape
    if n < k:
        raise DataError(f"need at least {k} rows for {k} columns, got {n}")
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise SingularMatrixError(
            f"the design has rank {rank} with {k} columns; a column is a"
            f" combination of the others")
    # a = 1 - tau meets the equality constraints; from least squares,
    # both slacks start mean |residual| above their bounds (the loop
    # returns at once when every residual is 0)
    a = np.full(n, 1.0 - tau)
    r = y - X @ beta
    shift = float(np.mean(np.abs(r)))
    z = np.maximum(-r, 0.0) + shift
    w = np.maximum(r, 0.0) + shift
    size = float(np.mean(np.abs(y)))
    for _ in range(MAX_ITERATIONS):
        s = 1.0 - a
        gap = float(a @ z + s @ w)
        resid = y - X @ beta
        loss = float(resid @ check_score(resid, tau))
        if gap <= GAP_TOL * (loss + size) or loss == 0.0:
            return beta, a
        d = 1.0 / (z / a + w / s)
        normal = (X.T * d) @ X
        r = w - z

        def direction(xi):
            # the a and beta steps that keep X.T @ a and w - z + X @ beta
            # fixed, given the complementarity target folded into xi
            db = np.linalg.solve(normal, X.T @ (d * xi))
            return db, d * (xi - X @ db)

        # predictor: the affine-scaling step, which aims at a gap of 0
        db, da = direction(r)
        dz = -z * (1.0 + da / a)
        dw = -w * (1.0 - da / s)
        fp = min(_step_length(a, da), _step_length(s, -da))
        fd = min(_step_length(z, dz), _step_length(w, dw))
        if min(fp, fd) < 1.0:
            # corrector: aim at the centring target mu, with the
            # predictor's second-order terms
            g = float((a + fp * da) @ (z + fd * dz)
                      + (s - fp * da) @ (w + fd * dw))
            mu = gap * (g / gap) ** 3 / (2 * n)
            dadz, dsdw = da * dz, -da * dw
            db, da = direction(r + mu * (1.0 / a - 1.0 / s)
                               - dadz / a + dsdw / s)
            dz = (mu - dadz - z * da) / a - z
            dw = (mu - dsdw + w * da) / s - w
            fp = min(_step_length(a, da), _step_length(s, -da))
            fd = min(_step_length(z, dz), _step_length(w, dw))
        a = a + fp * da
        beta = beta + fd * db
        z = z + fd * dz
        w = w + fd * dw
    raise TrainingError(f"linear quantile regression did not converge in"
                        f" {MAX_ITERATIONS} iterations")
