"""Adam updates, minibatch scheduling, early stopping, and hold-out tuning.

The training engine here (`train_joint`) fits models of the form

    y  ~  x @ theta + net(z)

by minibatch Adam on either the check loss (quantile fits) or squared
error (projection fits), updating theta and every network layer in the
same step. An internal 80/20 train/validation split drives epoch-level
early stopping; the parameters in effect when training halts are the
ones returned.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import network as net
from .errors import ConfigError, DataError, DplqrError, TrainingError
from .quantile_loss import (loss_subgrad_wrt_pred, mean_check_loss,
                            validate_tau)
from .rng import shuffled_indices, split

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON_HAT = 1e-7

MODES = ("dplqr", "lqr", "dnqr")

VAL_SHARE = 0.2  # share of the rows a hold-out split keeps back


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run; its randomness is the rng
    passed to `fit` or `tune`, not a setting.

    depth counts affine maps, so depth 1 is a pure affine model and
    depth L has L-1 hidden relu layers of the given width. The minibatch
    is capped at the training-split size at fit time. `mode` is "dplqr"
    (linear part plus network), "lqr" (all affine: it trains one affine
    layer whatever its depth and width) or "dnqr" (no linear part; all
    covariates enter the network). `train_joint` checks the config and
    builds the network that `width_chain` names.
    """

    depth: int = 3
    width: int = 32
    epochs: int = 500
    minibatch: int = 64
    early_stop_patience: int = 50
    learning_rate: float = 0.01
    mode: str = "dplqr"

    def validate(self, n=None):
        for name in ("depth", "width", "epochs", "minibatch",
                     "early_stop_patience"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        lr = self.learning_rate
        if (isinstance(lr, bool) or not isinstance(lr, numbers.Real)
                or not (np.isfinite(lr) and lr > 0)):
            raise ConfigError(f"learning_rate must be positive, got {lr!r}")
        if self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if n is not None and self.minibatch > n:
            raise ConfigError(
                f"minibatch {self.minibatch} exceeds sample size {n}")
        return self

    def width_chain(self, n_in):
        """The width chain this config trains on n_in network inputs: one
        affine layer in lqr mode or with no inputs (the intercept alone)."""
        depth = 1 if self.mode == "lqr" or n_in == 0 else self.depth
        return (n_in,) + (self.width,) * (depth - 1) + (1,)


def _layout(mode, x_dim, z_dim):
    """(theta length, network input width) of a model on x_dim linear and
    z_dim network covariates: dnqr routes x into the network."""
    if mode == "dnqr":
        return 0, x_dim + z_dim
    return x_dim, z_dim


@dataclass
class TrainHistory:
    """Per-epoch loss traces; epochs are 1-indexed in best/stopped fields."""

    train_loss: list
    val_loss: list
    best_epoch: int
    stopped_epoch: int


@dataclass
class AdamState:
    """Moment accumulators for one trainable array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def init_adam(param):
    return AdamState(np.zeros_like(param), np.zeros_like(param))


def adam_step(state, param, grad, lr):
    """One Adam update of the array `param`, in place.

    Advances `state` in place too. Bias-corrected form:

        m <- b1*m + (1-b1)*g        mhat = m / (1 - b1^t)
        v <- b2*v + (1-b2)*g^2      vhat = v / (1 - b2^t)
        param <- param - lr * mhat / (sqrt(vhat) + epsilon_hat)
    """
    grad = np.asarray(grad, dtype=float)
    if not grad.shape == param.shape == state.first_moment.shape:
        raise ConfigError(
            f"adam_step: gradient {grad.shape}, parameter {param.shape}"
            f" and moment {state.first_moment.shape} shapes differ")
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient in adam_step")
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    m, v = state.first_moment, state.second_moment
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    param -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON_HAT)


def epoch_batches(n, minibatch, rng):
    """One shuffled pass over 0..n-1, chopped into minibatch-sized slices.

    The last slice may be smaller; every index appears exactly once.
    """
    if n < 1:
        raise ConfigError(f"epoch_batches needs n >= 1, got {n}")
    if not 1 <= minibatch <= n:
        raise ConfigError(
            f"minibatch must lie in [1, {n}], got {minibatch}")
    perm = shuffled_indices(rng, n)
    return [perm[i:i + minibatch] for i in range(0, n, minibatch)]


class EarlyStopMonitor:
    """Stops training after `patience` epochs without strict improvement.

    A NaN validation loss counts as no improvement. best_epoch is the
    1-indexed epoch of the best loss seen so far.
    """

    def __init__(self, patience):
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_loss = np.inf
        self.best_epoch = 0
        self.epochs_seen = 0
        self.epochs_since_best = 0

    def update(self, val_loss):
        """Record one epoch's validation loss; True means stop now."""
        self.epochs_seen += 1
        if np.isfinite(val_loss) and val_loss < self.best_loss:
            self.best_loss = float(val_loss)
            self.best_epoch = self.epochs_seen
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience


def _holdout_split(n, rng):
    """Shuffled split holding out max(1, int(n * VAL_SHARE)) rows."""
    if n < 2:
        raise DataError(f"need at least 2 rows to hold out a split, got {n}")
    n_val = max(1, int(n * VAL_SHARE))
    perm = shuffled_indices(rng, n)
    return perm[:n - n_val], perm[n - n_val:]


def train_joint(y, x, z, config, rng, tau=None):
    """Minibatch-Adam fit of y ~ x @ theta + net(z).

    Parameters
    ----------
    y : (n,) targets
    x : (n, p) linear-part covariates; p may be 0
    z : (n, q) network inputs; q may be 0
    config : TrainConfig, checked by `validate(n=n)` before the rng is
        drawn from; the network is `config.width_chain(q)`, so with
        q = 0 it is (0, 1), a learned intercept
    rng : numpy Generator driving the split, init, and batch order
    tau : quantile level for check loss, or None for squared error

    Returns
    -------
    (theta, params, history) with theta shape (p,), params a
    NetworkParams, and history a TrainHistory. The returned
    parameters are the ones current when training halted; the monitor
    only decides when to halt and which epoch was best on validation.

    Each step does each piece of work once. One set of activation
    buffers (`network.activation_buffers`) serves every pass: a step's
    forward pass leaves its layer inputs there for its backward pass,
    and the epoch evaluations reuse the same buffers. theta and the
    layers are views into one flat vector, so a step makes a single
    in-place `adam_step` call on that vector and its flat gradient.
    Adam is elementwise, so this gives the same bits as one update per
    array.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n = y.shape[0]
    if x.shape[0] != n:
        raise DataError("x and y row counts differ")
    if z.ndim != 2 or z.shape[0] != n:
        raise DataError(f"z must have shape ({n}, q), got {z.shape}")
    if tau is not None:
        tau = validate_tau(tau)
    config.validate(n=n)

    tr_idx, val_idx = _holdout_split(n, rng)
    y_tr, y_val = y[tr_idx], y[val_idx]
    x_tr, x_val = x[tr_idx], x[val_idx]
    z_tr, z_val = z[tr_idx], z[val_idx]
    params = net.init_params(config.width_chain(z.shape[1]), rng)
    acts = net.activation_buffers(params.widths, len(tr_idx))
    blocks = [np.zeros(x.shape[1])] + params.layers

    # writing into `flat` updates theta and every layer, its views
    flat = np.concatenate([b.ravel() for b in blocks])
    views, start = [], 0
    for b in blocks:
        views.append(flat[start:start + b.size].reshape(b.shape))
        start += b.size
    theta = views[0]
    params.layers = views[1:]
    flat_grad = np.empty_like(flat)
    state = init_adam(flat)
    lr = config.learning_rate
    minibatch = min(config.minibatch, len(tr_idx))

    def predict_on(xs, zs):
        return xs @ theta + net.forward_batch(params, zs, acts)

    def loss_of(residuals):
        if tau is not None:
            return mean_check_loss(residuals, tau)
        return float(np.mean(residuals ** 2))

    monitor = EarlyStopMonitor(config.early_stop_patience)
    train_trace, val_trace = [], []

    for epoch in range(1, config.epochs + 1):
        for batch in epoch_batches(len(tr_idx), minibatch, rng):
            xb, yb, zb = x_tr[batch], y_tr[batch], z_tr[batch]
            resid = yb - xb @ theta - net.forward_batch(params, zb, acts)
            if tau is not None:
                upstream = loss_subgrad_wrt_pred(resid, tau) / len(batch)
            else:
                upstream = -2.0 * resid / len(batch)
            grads = ([xb.T @ upstream]
                     + net.backward_batch(params, zb, upstream, acts))
            np.concatenate([g.ravel() for g in grads], out=flat_grad)
            adam_step(state, flat, flat_grad, lr)

        train_epoch = loss_of(y_tr - predict_on(x_tr, z_tr))
        val_epoch = loss_of(y_val - predict_on(x_val, z_val))
        if not (np.isfinite(train_epoch) and np.isfinite(val_epoch)):
            raise TrainingError(
                f"non-finite loss at epoch {epoch}; try a lower learning rate")
        train_trace.append(train_epoch)
        val_trace.append(val_epoch)
        if monitor.update(val_epoch):
            break

    history = TrainHistory(train_trace, val_trace,
                           best_epoch=monitor.best_epoch,
                           stopped_epoch=monitor.epochs_seen)
    return theta, params, history


def tune(grid, data, tau, rng):
    """Pick the best TrainConfig from a grid by hold-out check loss.

    `rng` splits `data` 80/20 once and gives one child stream per grid
    position. Each candidate is fitted on the 80% with its child, scored
    by mean check loss of full-model residuals on the 20%, and the
    winner is returned (ties go to the earlier grid entry). A candidate
    is skipped when an earlier one trains the same network on `data`
    (any lqr depth and width; any depth and width with no z columns)
    with the same lr, epochs, minibatch and patience. A bad
    tau, or a candidate whose minibatch exceeds the 80% split, raises
    ConfigError before any candidate is fitted. A candidate's ConfigError
    is raised; candidates that fail to train are skipped with a warning,
    and if all fail, a TrainingError is raised. A grid of one distinct
    candidate is returned as-is without consuming the rng.
    """
    from .model import fit as _fit, residuals as _residuals

    grid = list(grid)
    if not grid:
        raise ConfigError("tuning grid is empty")
    for candidate in grid:
        candidate.validate()
    tau = validate_tau(tau)
    first = {}  # what a candidate trains -> its first grid position
    for k, c in enumerate(grid):
        widths = c.width_chain(_layout(c.mode, data.p, data.q)[1])
        first.setdefault((widths, c.learning_rate, c.epochs, c.minibatch,
                          c.early_stop_patience), k)
    if len(first) == 1:
        return grid[0]

    tr_idx, val_idx = _holdout_split(data.n, rng)
    for candidate in grid:
        if candidate.minibatch > len(tr_idx):
            raise ConfigError(
                f"minibatch {candidate.minibatch} exceeds the tuning split:"
                f" {len(tr_idx)} of {data.n} rows train each candidate")
    train_data = data.subset(tr_idx)
    val_data = data.subset(val_idx)
    children = split(rng, len(grid))

    best_config, best_loss = None, np.inf
    for candidate, child in ((grid[k], children[k]) for k in first.values()):
        try:
            fitted = _fit(train_data, tau, candidate, child)
            score = mean_check_loss(_residuals(fitted, val_data), tau)
        except ConfigError:
            raise
        except DplqrError as exc:
            warnings.warn(f"tuning candidate {candidate} failed: {exc}")
            continue
        if np.isfinite(score) and score < best_loss:
            best_config, best_loss = candidate, score
    if best_config is None:
        raise TrainingError("every tuning candidate failed to train")
    return best_config
