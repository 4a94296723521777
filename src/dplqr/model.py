"""Partially linear quantile regression.

The model is

    quantile_tau(Y | X=x, Z=z) = x @ theta + m(z)

with theta estimated jointly with a ReLU-network m by minimizing the
empirical check loss. Two degenerate modes reuse the same machinery:
"lqr" trains one affine layer whatever depth its config names, so the
model is linear in (x, z); "dnqr" has no linear part and routes every
covariate into the network. `optimizer._layout` and
`TrainConfig.width_chain` alone decide both rules, and
`optimizer.train_stack`, which every fit runs (`fit` as the stack of one,
`fit_stack` for tuning candidates trained together, each then handed out
through `fit`), checks the config.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TrainingError
from .network import NetworkParams, forward_batch
from .optimizer import TrainHistory, _layout, train_ahead, train_joint
from .quantile_loss import validate_tau


@dataclass
class Dataset:
    """Rows of (y, x, z): responses, linear covariates, network covariates.

    x and z may each be empty (p == 0 or q == 0) but not both. Arrays are
    coerced to float64 and must be finite.
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
        self.x = self._block(self.x, self.y.shape[0], "x")
        self.z = self._block(self.z, self.y.shape[0], "z")
        if self.x.shape[1] == 0 and self.z.shape[1] == 0:
            raise DataError("x and z cannot both be empty")

    @staticmethod
    def _block(a, n, name):
        if a is None:
            a = np.zeros((n, 0))
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2 or a.shape[0] != n:
            raise DataError(
                f"{name} must have one row per response; got shape"
                f" {a.shape} for {n} responses")
        if not np.all(np.isfinite(a)):
            raise DataError(f"{name} contains non-finite values")
        return a

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

    x_dim and z_dim record the covariate layout of the training data, so
    prediction accepts (x, z) in the original shape even in dnqr mode,
    where the network consumes their concatenation and theta_hat is empty.
    x has no constant column, so the network carries the intercept; with
    no network covariates it is the (0, 1) network, a learned constant.
    """

    theta_hat: np.ndarray
    network: NetworkParams
    tau: float
    history: TrainHistory
    mode: str
    x_dim: int
    z_dim: int


def _training_inputs(data, tau, mode):
    """(tau, x, z) the kernel trains on: dnqr routes x into the network."""
    if not isinstance(data, Dataset):
        raise DataError("fit expects a Dataset")
    tau = validate_tau(tau)
    if data.n < 5:
        raise DataError(f"need at least 5 rows to fit, got {data.n}")
    if _layout(mode, data.p, data.q)[0] < data.p:  # x enters the net
        return tau, data.x[:, :0], np.hstack([data.x, data.z])
    return tau, data.x, data.z


def fit(data, tau, config, rng):
    """Fit the model at quantile level tau by minibatch Adam.

    theta starts at 0 and the network at its Glorot init; both are
    updated in every Adam step. An internal 80/20 split of `data` drives
    early stopping: training halts once validation loss has gone
    `early_stop_patience` epochs without a new minimum, and the
    parameters in effect at the halt are returned. `rng` (a numpy
    Generator, say `make_rng(seed)`) draws the split, the init and the
    batch order, so the same rng state gives the same fit. A bad config
    raises ConfigError before the rng is drawn from.
    """
    tau, x, z = _training_inputs(data, tau, config.mode)
    theta, params, history = train_joint(data.y, x, z, config, rng, tau=tau)
    return PlqrFit(theta, params, tau, history, config.mode,
                   x_dim=data.p, z_dim=data.q)


def fit_stack(data, tau, configs, rngs):
    """`fit` for each (config, rng) pair, trained together as one stack.

    The configs must share their mode, the network they train on `data`
    and their minibatch (`optimizer.train_stack` checks the last two).
    The stack trains ahead (`optimizer.train_ahead`), and then `fit` on
    each pair hands its member out, so each entry of the returned list
    is, bit for bit, what `fit(data, tau, config, rng)` returns, or the
    TrainingError it raises; the other members train on unchanged.
    """
    modes = {config.mode for config in configs}
    if len(modes) != 1:
        raise ConfigError(
            f"a stack of fits needs one mode, got {sorted(modes)}")
    (mode,) = modes
    tau, x, z = _training_inputs(data, tau, mode)
    ys = np.broadcast_to(data.y, (len(configs), data.n))
    fits = []
    with train_ahead(ys, x, z, configs, rngs, tau=tau):
        for config, rng in zip(configs, rngs):
            try:
                fits.append(fit(data, tau, config, rng))
            except TrainingError as exc:
                fits.append(exc)
    return fits


def _check_block(a, dim, n, name):
    a = np.zeros((n, 0)) if a is None else np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1) if dim == 1 else a.reshape(1, -1)
    if a.shape != (n, dim):
        raise DataError(
            f"{name} must have shape ({n}, {dim}), got {a.shape}")
    return a


def predict_batch(fit, x, z):
    """Predicted tau-quantiles for rows of covariates.

    x has fit.x_dim columns and z has fit.z_dim columns (either may be
    None when the corresponding dimension is 0).
    """
    if x is not None and np.ndim(x) == 2:
        n = len(x)
    elif z is not None and np.ndim(z) == 2:
        n = len(z)
    else:
        raise DataError("predict_batch needs at least one 2-d covariate block")
    x = _check_block(x, fit.x_dim, n, "x")
    z = _check_block(z, fit.z_dim, n, "z")
    if _layout(fit.mode, fit.x_dim, fit.z_dim)[0] < fit.x_dim:
        return forward_batch(fit.network, np.hstack([x, z]))
    return x @ fit.theta_hat + forward_batch(fit.network, z)


def predict(fit, x, z=None):
    """Predicted tau-quantile at a single covariate point."""
    x = np.zeros(0) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    z = np.zeros(0) if z is None else np.atleast_1d(np.asarray(z, dtype=float))
    if x.shape != (fit.x_dim,):
        raise DataError(f"x must have shape ({fit.x_dim},), got {x.shape}")
    if z.shape != (fit.z_dim,):
        raise DataError(f"z must have shape ({fit.z_dim},), got {z.shape}")
    return float(predict_batch(fit, x.reshape(1, -1), z.reshape(1, -1))[0])


def residuals(fit, data):
    """y minus the fitted tau-quantile, for every row of `data`."""
    if data.p != fit.x_dim or data.q != fit.z_dim:
        raise DataError(
            f"data has (p={data.p}, q={data.q}) but the fit expects"
            f" (p={fit.x_dim}, q={fit.z_dim})")
    return data.y - predict_batch(fit, data.x, data.z)


def m_values(fit, z_matrix):
    """Network-component values on rows of z (the nonparametric part).

    For "dnqr" fits the linear/nonparametric split does not exist, so
    this raises. With no network covariates (q == 0), m is the intercept.
    """
    if fit.mode == "dnqr":
        raise ConfigError("dnqr fits have no separable nonparametric part")
    z_matrix = np.asarray(z_matrix, dtype=float)
    if z_matrix.ndim != 2 or z_matrix.shape[1] != fit.z_dim:
        raise DataError(
            f"z must have {fit.z_dim} columns, got shape {z_matrix.shape}")
    return forward_batch(fit.network, z_matrix)
