"""Partially linear quantile regression.

The model is

    quantile_tau(Y | X=x, Z=z) = x @ theta + m(z)

with theta estimated jointly with a ReLU-network m by minimizing the
empirical check loss (`fit`). The lqr method, the paper's linear
baseline, shares the model's layout: `fit_lqr` solves the exact linear
quantile regression in (x, z) (`rq.rq`) and stores it as theta plus
one affine layer, training nothing. A fit reads x as linear and z as
network covariates, so the dnqr method, a network on every covariate
with no linear part, is a dplqr fit with no x columns. A TrainConfig
checks its fields when it is made, and `optimizer.train_stack`, which
every `fit` runs (as the stack of one; `optimizer.tune` trains its
candidates ahead as stacks and hands each out through `fit`), checks
the rows: at least `optimizer.MIN_FIT_ROWS` of them, and a minibatch
within the 80% each epoch trains on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .network import NetworkParams, forward_batch
from .optimizer import TrainHistory, train_joint
from .quantile_loss import validate_tau
from .rq import rq

MODES = ("dplqr", "lqr")  # the kinds of fit a model file records


def _block(a, n, name, width=None):
    """Covariate block `a` as a float array: None is (n, 0) and a 1-d
    array one column; a block that is not then 2-d with n rows (and
    `width` columns, when given) raises DataError."""
    a = np.zeros((n, 0)) if a is None else np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if width is not None:
        if a.shape != (n, width):
            raise DataError(
                f"{name} must have shape ({n}, {width}), got {a.shape}")
    elif a.ndim != 2 or a.shape[0] != n:
        raise DataError(
            f"{name} must have one row per response; got shape"
            f" {a.shape} for {n} responses")
    return a


@dataclass
class Dataset:
    """Rows of (y, x, z): responses, linear covariates, network covariates.

    y is 1-d; x and z are blocks (`_block`), each possibly empty (p == 0
    or q == 0) but not both. Arrays are coerced to float64, and finite.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 1:
            raise DataError(f"y must be 1-d, got shape {self.y.shape}")
        if not np.all(np.isfinite(self.y)):
            raise DataError("y contains non-finite values")
        for name in ("x", "z"):
            setattr(self, name, _block(getattr(self, name), self.n, name))
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} contains non-finite values")
        if self.x.shape[1] == 0 and self.z.shape[1] == 0:
            raise DataError("x and z cannot both be empty")

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.x.shape[1]

    @property
    def q(self):
        return self.z.shape[1]

    def subset(self, idx):
        idx = np.asarray(idx)
        return Dataset(self.y[idx], self.x[idx], self.z[idx])


@dataclass
class PlqrFit:
    """A fitted model: linear coefficients plus a network.

    theta_hat has one entry per x column and the network one input per z
    column. x has no constant column, so the network carries the
    intercept; with no network covariates it is the (0, 1) network, a
    learned constant. history is the training record, None for an lqr
    fit, which does not train, and for a model read from a file.
    """

    theta_hat: np.ndarray
    network: NetworkParams
    tau: float
    history: TrainHistory
    mode: str


def fit(data, tau, config, rng):
    """Fit the model at quantile level tau by minibatch Adam.

    theta starts at 0 and the network at its Glorot init; both are updated in every Adam step. An
    internal 80/20 split of `data` drives early stopping: training halts
    once validation loss has gone `early_stop_patience` epochs without a
    new minimum, and the parameters in effect at the halt are returned.
    `rng` (a numpy Generator, say `make_rng(seed)`) draws the split, the
    init and the batch order, so the same rng state gives the same fit.
    The config checked its fields when it was made; the training kernel
    checks the rows before the rng is drawn from, so fewer than
    `optimizer.MIN_FIT_ROWS` rows raise DataError and a minibatch above
    the 80% each epoch trains on (240 of 300 rows) raises ConfigError.
    """
    if not isinstance(data, Dataset):
        raise DataError("fit expects a Dataset")
    tau = validate_tau(tau)
    theta, params, history = train_joint(data.y, data.x, data.z, config,
                                         rng, tau=tau)
    return PlqrFit(theta, params, tau, history, "dplqr")


def fit_lqr(data, tau):
    """The lqr fit: the exact linear quantile regression of y on
    [x, z, 1] (`rq.rq`) at quantile level tau.

    theta is the x part, and the (q, 1) affine layer holds the z part and
    the intercept. It trains nothing, so it takes no config or rng, and
    its history is None. A design without full column rank raises
    SingularMatrixError, fewer rows than its p + q + 1 columns DataError,
    and a solve that does not converge TrainingError.
    """
    if not isinstance(data, Dataset):
        raise DataError("fit_lqr expects a Dataset")
    tau = validate_tau(tau)
    beta, _ = rq(np.hstack([data.x, data.z, np.ones((data.n, 1))]), data.y,
                 tau)
    layer = beta[data.p:].reshape(1, data.q + 1)
    return PlqrFit(beta[:data.p], NetworkParams((data.q, 1), [layer]), tau,
                   None, "lqr")


def predict_batch(fit, x, z):
    """Predicted tau-quantiles for rows of covariates: x must be a block
    (`_block`) of one column per theta entry and z one of one column per
    network input, the rows counted from x, or from z when x is not
    2-d."""
    if np.ndim(x) == 2:
        n = len(x)
    elif np.ndim(z) == 2:
        n = len(z)
    else:
        raise DataError("predict_batch needs at least one 2-d covariate block")
    x = _block(x, n, "x", fit.theta_hat.size)
    z = _block(z, n, "z", fit.network.widths[0])
    return x @ fit.theta_hat + forward_batch(fit.network, z)


def predict(fit, x, z=None):
    """Predicted tau-quantile at a single covariate point: x and z, 1-d
    or scalar, each become one row for `predict_batch` to check."""
    x, z = (None if a is None else np.atleast_1d(np.asarray(a, float))[None]
            for a in (x, z))
    return float(predict_batch(fit, x, z)[0])


def residuals(fit, data):
    """y minus the fitted tau-quantile, for every row of `data`."""
    return data.y - predict_batch(fit, data.x, data.z)


def m_values(fit, z_matrix):
    """Network-component values on rows of z (the nonparametric part).

    With no network covariates (q == 0), m is the intercept.
    """
    return forward_batch(fit.network, z_matrix)
