"""Adam updates, minibatch scheduling, early stopping, and hold-out tuning.

The training engine here (`train_joint`) fits models of the form

    y  ~  x @ theta + net(z)

by minibatch Adam on either the check loss (quantile fits) or squared
error (projection fits), updating theta and every network layer in the
same step. An internal 80/20 train/validation split drives epoch-level
early stopping; the parameters in effect when training halts are the
ones returned.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import network as net
from .errors import ConfigError, DataError, DplqrError, TrainingError
from .quantile_loss import (loss_subgrad_wrt_pred, mean_check_loss,
                            validate_tau)
from .rng import make_rng, shuffled_indices, split

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON_HAT = 1e-7

MODES = ("dplqr", "lqr", "dnqr")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    depth counts affine maps, so depth 1 is a pure affine model and
    depth L has L-1 hidden relu layers of the given width. The minibatch
    is capped at the training-split size at fit time. `mode` selects the
    model family: "dplqr" (linear part plus network), "lqr" (everything
    affine), or "dnqr" (no linear part; all covariates enter the network).
    """

    depth: int = 3
    width: int = 32
    epochs: int = 500
    minibatch: int = 64
    early_stop_patience: int = 50
    learning_rate: float = 0.01
    seed: int = 0
    mode: str = "dplqr"

    def validate(self, n=None):
        for name in ("depth", "width", "epochs", "minibatch",
                     "early_stop_patience"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive, got {self.learning_rate!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if n is not None and self.minibatch > n:
            raise ConfigError(
                f"minibatch {self.minibatch} exceeds sample size {n}")
        return self


@dataclass
class TrainHistory:
    """Per-epoch loss traces; epochs are 1-indexed in best/stopped fields."""

    train_loss: list
    val_loss: list
    best_epoch: int
    stopped_epoch: int


@dataclass
class AdamState:
    """Moment accumulators for one list of trainable arrays."""

    first_moment: list
    second_moment: list
    step_count: int = 0


def init_adam(params):
    return AdamState(
        [np.zeros_like(p) for p in params],
        [np.zeros_like(p) for p in params],
    )


def adam_step(state, params, grads, lr):
    """One Adam update over a list of parameter arrays.

    Advances `state` in place and returns the list of new parameter
    arrays (inputs are not mutated). Bias-corrected form:

        m <- b1*m + (1-b1)*g        mhat = m / (1 - b1^t)
        v <- b2*v + (1-b2)*g^2      vhat = v / (1 - b2^t)
        param <- param - lr * mhat / (sqrt(vhat) + epsilon_hat)
    """
    if not (len(params) == len(grads) == len(state.first_moment)):
        raise ConfigError("adam_step: parameter and gradient lists differ")
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    out = []
    for p, g, m, v in zip(params, grads, state.first_moment,
                          state.second_moment):
        g = np.asarray(g, dtype=float)
        if g.shape != p.shape:
            raise ConfigError(
                f"adam_step: gradient shape {g.shape} does not match"
                f" parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError("non-finite gradient in adam_step")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        out.append(p - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON_HAT))
    return out


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


def _holdout_split(n, rng, val_share=0.2):
    """Deterministic shuffled split; validation gets max(1, floor(share))."""
    if n < 2:
        raise DataError(f"need at least 2 rows to hold out a split, got {n}")
    n_val = max(1, int(n * val_share))
    perm = shuffled_indices(rng, n)
    return perm[:n - n_val], perm[n - n_val:]


def train_joint(y, x, z, widths, config, rng, tau=None):
    """Minibatch-Adam fit of y ~ x @ theta + net(z).

    Parameters
    ----------
    y : (n,) targets
    x : (n, p) linear-part covariates; p may be 0
    z : (n, q) network inputs; ignored when widths is None
    widths : width chain for the network, or None for no network
    config : TrainConfig
    rng : numpy Generator driving the split, init, and batch order
    tau : quantile level for check loss, or None for squared error

    Returns
    -------
    (theta, params, history) with theta shape (p,), params a
    NetworkParams or None, and history a TrainHistory. The returned
    parameters are the ones current when training halted; the monitor
    only decides when to halt and which epoch was best on validation.

    Each step does each piece of work once. The z rows are augmented
    with their bias column once per call, and one set of hidden
    activation buffers (`network.hidden_buffers`) serves every pass: a
    step's forward pass leaves its activations there for its backward
    pass, and the epoch evaluations reuse the same buffers. theta and
    the layers are views into one flat vector, so a step makes a single
    `adam_step` call on that vector and its flat gradient. Adam is
    elementwise, so this gives the same bits as one call per array.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.shape[0]
    if x.shape[0] != n:
        raise DataError("x and y row counts differ")
    if tau is not None:
        tau = validate_tau(tau)

    tr_idx, val_idx = _holdout_split(n, rng)
    y_tr, y_val = y[tr_idx], y[val_idx]
    x_tr, x_val = x[tr_idx], x[val_idx]
    blocks = [np.zeros(x.shape[1])]
    if widths is not None:
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[0] != n:
            raise DataError(f"z must have shape ({n}, q), got {z.shape}")
        params = net.init_params(widths, rng)
        z_tr, z_val = net.augment(z[tr_idx]), net.augment(z[val_idx])
        acts = net.hidden_buffers(params.widths, len(tr_idx))
        blocks += params.layers
    else:
        params = z_tr = z_val = acts = None

    # writing into `flat` updates theta and every layer, its views
    flat = np.concatenate([b.ravel() for b in blocks])
    views, start = [], 0
    for b in blocks:
        views.append(flat[start:start + b.size].reshape(b.shape))
        start += b.size
    theta = views[0]
    if params is not None:
        params.layers = views[1:]
    flat_grad = np.empty_like(flat)
    state = init_adam([flat])
    lr = config.learning_rate
    minibatch = min(config.minibatch, len(tr_idx))

    def predict_on(xs, zs):
        out = xs @ theta
        if params is not None:
            out = out + net.forward_batch(params, zs, acts)
        return out

    def loss_of(residuals):
        if tau is not None:
            return mean_check_loss(residuals, tau)
        return float(np.mean(residuals ** 2))

    monitor = EarlyStopMonitor(config.early_stop_patience)
    train_trace, val_trace = [], []

    for epoch in range(1, config.epochs + 1):
        for batch in epoch_batches(len(tr_idx), minibatch, rng):
            xb, yb = x_tr[batch], y_tr[batch]
            resid = yb - xb @ theta
            if params is not None:
                zb = z_tr[batch]
                resid = resid - net.forward_batch(params, zb, acts)
            if tau is not None:
                upstream = loss_subgrad_wrt_pred(resid, tau) / len(batch)
            else:
                upstream = -2.0 * resid / len(batch)
            grads = [xb.T @ upstream]
            if params is not None:
                grads += net.backward_batch(params, zb, upstream, acts)
            np.concatenate([g.ravel() for g in grads], out=flat_grad)
            flat[:] = adam_step(state, [flat], [flat_grad], lr)[0]

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
                           best_epoch=max(monitor.best_epoch, 1),
                           stopped_epoch=monitor.epochs_seen)
    return theta, params, history


def tune(grid, data, tau, rng=None):
    """Pick the best TrainConfig from a grid by hold-out check loss.

    Splits `data` 80/20 once, fits every candidate on the 80% with its
    own child rng, scores mean check loss of full-model residuals on the
    20%, and returns the winner (ties go to the earlier grid entry).
    Candidates that fail to train are skipped with a warning; if all
    fail, a TrainingError is raised. A single-candidate grid is returned
    as-is without consuming the rng.
    """
    from .model import fit as _fit, residuals as _residuals

    grid = list(grid)
    if not grid:
        raise ConfigError("tuning grid is empty")
    for candidate in grid:
        candidate.validate()
    if len(grid) == 1:
        return grid[0]
    if rng is None:
        rng = make_rng(grid[0].seed)

    tr_idx, val_idx = _holdout_split(data.n, rng)
    train_data = data.subset(tr_idx)
    val_data = data.subset(val_idx)
    children = split(rng, len(grid))

    best_config, best_loss = None, np.inf
    for candidate, child in zip(grid, children):
        try:
            fitted = _fit(train_data, tau, candidate, child)
            score = mean_check_loss(_residuals(fitted, val_data), tau)
        except DplqrError as exc:
            warnings.warn(f"tuning candidate {candidate} failed: {exc}")
            continue
        if np.isfinite(score) and score < best_loss:
            best_config, best_loss = candidate, score
    if best_config is None:
        raise TrainingError("every tuning candidate failed to train")
    return best_config
