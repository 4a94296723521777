"""Adam updates, minibatch scheduling, early stopping, and hold-out tuning.

The training engine here (`train_stack`) fits K independent models of
the form

    y_k  ~  x @ theta_k + net_k(z)

in lockstep, by minibatch Adam on either the check loss (quantile fits)
or squared error (projection fits), updating theta and every network
layer in the same step. The members share the rows x and z, the network
and the minibatch; each has its own target, learning rate, patience,
epochs and rng. An internal 80/20 train/validation split of each member
drives its epoch-level early stopping; the parameters in effect when a
member halts are the ones returned for it.

What stacks follows from what fits share. `tune` trains the candidates
it keeps as one stack per mode, network and minibatch (one stack of two
in the scenario grids), and `inference.covariance` trains its p
projections as one stack; `model.fit` and `train_joint` are the stack of
one. A stack trains ahead (`train_ahead`) and then hands each member out
to the `train_joint` call that would train it alone, so every fit still
passes through `model.fit` or `inference.fit_projection`. Each member's outputs are byte for byte those of training it alone:
every product is a stacked `np.matmul`, which runs per member the BLAS
call a lone network runs, losses are reduced along each member's own
row, and Adam is elementwise (`tests/test_train_exact.py` pins this).
A step costs per-call numpy overhead more than arithmetic, and a stack
shares that overhead: a scenario grid's pair of tuning candidates trains
in about 0.7 of the time of training the two one by one on case 1's
small networks, and in about 0.8 on case 3's wider ones (ROADMAP item 5
has the measurements). Fits of different replicates are not stacked
together yet.
"""

import math
import numbers
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import network as net
from .errors import ConfigError, DataError, DplqrError, TrainingError
from .quantile_loss import check_loss, mean_check_loss, validate_tau
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
    covariates enter the network). The training kernel, `train_stack`,
    checks the config and builds the network that `width_chain` names.
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

    `param` may be a stack's (K, P) flat vector, with `lr` a (K, 1)
    array of the members' learning rates; the update is elementwise, so
    each member's row gets the bits of its own update.
    """
    grad = np.asarray(grad, dtype=float)
    if not grad.shape == param.shape == state.first_moment.shape:
        raise ConfigError(
            f"adam_step: gradient {grad.shape}, parameter {param.shape}"
            f" and moment {state.first_moment.shape} shapes differ")
    if not np.isfinite(grad).all():
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


def _unflatten(flat, shapes):
    """Views into the last axis of `flat`, one block per shape; writing
    into a view writes into flat."""
    lead = flat.shape[:-1]
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[..., start:start + size].reshape(lead + shape))
        start += size
    return views


def train_stack(ys, x, z, configs, rngs, tau=None):
    """Minibatch-Adam fits of y_k ~ x @ theta_k + net_k(z), k < K, in lockstep.

    Parameters
    ----------
    ys : (K, n) targets, one row per member
    x : (n, p) linear-part covariates every member trains on; p may be 0
    z : (n, q) network inputs every member trains on; q may be 0
    configs : one TrainConfig per member, each checked by
        `validate(n=n)` before any rng is drawn from. They must name the
        same network, `width_chain(q)`, and the same minibatch; learning
        rate, patience and epochs may differ.
    rngs : one numpy Generator per member
    tau : quantile level for check loss, or None for squared error

    Returns
    -------
    A list with one entry per member: the (theta, params, history) that
    training it alone (`train_joint`) gives for its target, config and
    rng, bit for bit, or the TrainingError that stopped that member.

    Each member draws from its own rng its split, its init and then one
    permutation per epoch it trains, as it does trained alone.
    Every member's theta and layers are views into one (K, P) flat
    vector and its gradients are written into views of one (K, P)
    gradient, so one in-place `adam_step` call, with a (K, 1) learning
    rate, updates them all; Adam is elementwise, so this gives the same
    bits as one update per array. One set of activation buffers
    (`network.activation_buffers`) serves every pass: a step's forward
    pass leaves its layer inputs there for its backward pass, and the
    epoch evaluations reuse them. A member leaves the stack when it
    halts, keeping the parameters of its halt and drawing nothing more;
    a member whose gradient or loss turns non-finite fails alone, and
    the others go on unchanged.
    """
    ys = np.asarray(ys, dtype=float)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if len(configs) < 1 or len(rngs) != len(configs):
        raise ConfigError(f"a stack needs one rng per config, got"
                          f" {len(configs)} configs and {len(rngs)} rngs")
    if ys.ndim != 2 or ys.shape[0] != len(configs):
        raise DataError(f"ys must have one row per member, got {ys.shape}")
    n = ys.shape[1]
    if x.shape[0] != n:
        raise DataError("x and y row counts differ")
    if z.ndim != 2 or z.shape[0] != n:
        raise DataError(f"z must have shape ({n}, q), got {z.shape}")
    if tau is not None:
        tau = validate_tau(tau)
    for config in configs:
        config.validate(n=n)
    widths = configs[0].width_chain(z.shape[1])
    minibatch = configs[0].minibatch
    if any(c.width_chain(z.shape[1]) != widths or c.minibatch != minibatch
           for c in configs):
        raise ConfigError("stacked members must share their network and"
                          " minibatch")

    splits, inits = [], []
    for rng in rngs:
        splits.append(_holdout_split(n, rng))
        inits.append(net.init_params(widths, rng).layers)
    tr_idx = np.array([tr for tr, _ in splits])
    val_idx = np.array([val for _, val in splits])
    rows = np.arange(len(configs))[:, None]
    train = [ys[rows, tr_idx], x[tr_idx], z[tr_idx]]
    val = [ys[rows, val_idx], x[val_idx], z[val_idx]]
    n_tr = tr_idx.shape[1]
    minibatch = min(minibatch, n_tr)

    p = x.shape[1]
    shapes = [(p,)] + [w.shape for w in inits[0]]
    flat = np.array([np.concatenate([np.zeros(p)]
                                    + [w.ravel() for w in layers])
                     for layers in inits])
    flat_grad = np.empty_like(flat)
    state = init_adam(flat)
    lr = np.array([[c.learning_rate] for c in configs])
    acts = net.activation_buffers(widths, n_tr, len(configs))
    monitors = [EarlyStopMonitor(c.early_stop_patience) for c in configs]
    traces = [([], []) for _ in configs]
    results = [None] * len(configs)
    members = list(range(len(configs)))  # stack position -> member

    def bind():
        """Point theta (as (K, p, 1) columns), the layers and their
        gradients at the current flat vectors, and line up the members'
        training rows end to end for gathering."""
        nonlocal theta, params, grad_theta, grad_layers, rows_of, offsets
        theta, *layers = _unflatten(flat, shapes)
        params = net.NetworkParams(widths, layers)
        grad_theta, *grad_layers = _unflatten(flat_grad, shapes)
        theta, grad_theta = theta[..., None], grad_theta[..., None]
        total = len(members) * n_tr
        rows_of = [a.reshape((total,) + a.shape[2:]) for a in train]
        offsets = n_tr * np.arange(len(members))[:, None]

    def leave(leaving, error=None):
        """Take these members out of the stack, each with the error that
        stopped it or its halt-time fit; returns the stack positions of
        the members that stay."""
        nonlocal flat, flat_grad, lr, acts, members, train, val
        keep = []
        for pos, member in enumerate(members):
            if member not in leaving:
                keep.append(pos)
            elif error is not None:
                results[member] = error
            else:
                monitor = monitors[member]
                history = TrainHistory(*traces[member],
                                       best_epoch=monitor.best_epoch,
                                       stopped_epoch=monitor.epochs_seen)
                own = _unflatten(flat[pos].copy(), shapes)
                results[member] = (own[0], net.NetworkParams(widths, own[1:]),
                                   history)
        flat, flat_grad, lr = flat[keep], flat_grad[keep], lr[keep]
        state.first_moment = state.first_moment[keep]
        state.second_moment = state.second_moment[keep]
        train = [a[keep] for a in train]
        val = [a[keep] for a in val]
        acts = [buffer[:len(keep)] for buffer in acts]
        members = [members[pos] for pos in keep]
        bind()
        return keep

    def loss_on(y_rows, x_rows, z_rows):
        residuals = y_rows - ((x_rows @ theta)[..., 0]
                              + net.forward_batch(params, z_rows, acts))
        if tau is not None:
            return np.mean(check_loss(residuals, tau), axis=-1)
        return np.mean(residuals ** 2, axis=-1)

    theta = params = grad_theta = grad_layers = rows_of = offsets = None
    bind()
    epoch = 0
    while members:
        epoch += 1
        # each member's training rows in its own order for this epoch; a
        # step's minibatch is a slice of them
        order = np.array([shuffled_indices(rngs[m], n_tr) for m in members])
        order += offsets
        y_ord, x_ord, z_ord = (np.take(a, order, axis=0) for a in rows_of)
        for start in range(0, n_tr, minibatch):
            stop = start + minibatch
            xb, zb = x_ord[:, start:stop], z_ord[:, start:stop]
            size = xb.shape[1]
            resid = y_ord[:, start:stop]
            if p:  # with no linear part x @ theta is +0.0, a no-op to subtract
                resid = resid - (xb @ theta)[..., 0]
            resid = resid - net.forward_batch(params, zb, acts)
            if tau is not None:
                # loss_subgrad_wrt_pred(resid, tau) / size, bit for bit:
                # it takes one of two values
                upstream = np.where(resid < 0.0, (1.0 - tau) / size,
                                    -tau / size)
            else:
                upstream = -2.0 * resid / size
            if p:
                np.matmul(xb.swapaxes(-1, -2), upstream[..., None],
                          out=grad_theta)
            net.backward_batch(params, zb, upstream, acts, grad_layers)
            try:
                adam_step(state, flat, flat_grad, lr)
            except TrainingError as exc:
                finite = np.isfinite(flat_grad).all(axis=1)
                keep = leave({members[pos] for pos in
                              np.flatnonzero(~finite)}, exc)
                if not members:
                    break
                y_ord, x_ord, z_ord = (a[keep] for a in (y_ord, x_ord, z_ord))
                adam_step(state, flat, flat_grad, lr)
        if not members:
            break

        failed, halted = set(), set()
        for member, tr_loss, val_loss in zip(
                members, loss_on(*train).tolist(), loss_on(*val).tolist()):
            if not (math.isfinite(tr_loss) and math.isfinite(val_loss)):
                failed.add(member)
                continue
            traces[member][0].append(tr_loss)
            traces[member][1].append(val_loss)
            if (monitors[member].update(val_loss)
                    or epoch == configs[member].epochs):
                halted.add(member)
        if failed:
            leave(failed, TrainingError(
                f"non-finite loss at epoch {epoch}; try a lower learning"
                f" rate"))
        if halted:
            leave(halted)
    return results


# What `train_ahead` trained and `train_joint` has not handed out yet:
# id(rng) -> (y, x, z, config, rng, rng state, tau, result) of one member.
_ahead = {}


@contextmanager
def train_ahead(ys, x, z, configs, rngs, tau=None):
    """Train the members as one `train_stack` now; inside the block,
    `train_joint` hands each out instead of training it again.

    `train_joint(ys[k], x, z, configs[k], rngs[k], tau)` in the block
    returns member k's (theta, params, history), or raises its
    TrainingError, once. The stack drew from rngs[k] what training the
    member alone draws, so the call returns, and leaves the rng as,
    training alone would. A call that differs from the member in config,
    tau or data, or whose rng has been drawn from since, trains as
    usual. Members not handed out are dropped when the block ends.
    """
    results = train_stack(ys, x, z, configs, rngs, tau)
    keys = [id(rng) for rng in rngs]
    for key, y, config, rng, result in zip(keys, ys, configs, rngs, results):
        _ahead[key] = (y, x, z, config, rng, rng.bit_generator.state, tau,
                       result)
    try:
        yield
    finally:
        for key in keys:
            _ahead.pop(key, None)


def _trained_ahead(y, x, z, config, rng, tau):
    """The result `train_ahead` holds for this call, or None."""
    member = _ahead.get(id(rng))
    if member is None:
        return None
    m_y, m_x, m_z, m_config, m_rng, m_state, m_tau, result = member
    if (m_rng is not rng or m_config != config or m_tau != tau
            or rng.bit_generator.state != m_state
            or not np.array_equal(m_y, y) or not np.array_equal(m_x, x)
            or not np.array_equal(m_z, z)):
        return None
    del _ahead[id(rng)]
    return result


def train_joint(y, x, z, config, rng, tau=None):
    """Minibatch-Adam fit of y ~ x @ theta + net(z): `train_stack` with
    one member.

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
    A non-finite gradient or loss raises TrainingError. Inside a
    `train_ahead` block, a member that block trained is handed out
    instead of trained again.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DataError(f"y must be 1-d, got shape {y.shape}")
    result = _trained_ahead(y, x, z, config, rng, tau)
    if result is None:
        (result,) = train_stack(y[None], x, z, [config], [rng], tau)
    if isinstance(result, TrainingError):
        raise result
    return result


def tune(grid, data, tau, rng):
    """Pick the best TrainConfig from a grid by hold-out check loss.

    `rng` splits `data` 80/20 once and gives one child stream per grid
    position. Each candidate is fitted on the 80% with its child, scored
    by mean check loss of full-model residuals on the 20%, and the
    winner is returned (ties go to the earlier grid entry). A candidate
    is skipped when an earlier one trains the same network on `data`
    (any lqr depth and width; any depth and width with no z columns)
    with the same lr, epochs, minibatch and patience. The kept
    candidates that share their mode, network and minibatch train
    together as one `model.fit_stack`, which gives each the fit it
    would get alone. A bad
    tau, or a candidate whose minibatch exceeds the 80% split, raises
    ConfigError before any candidate is fitted. A candidate's ConfigError
    is raised; candidates that fail to train are skipped with a warning,
    and if all fail, a TrainingError is raised. A grid of one distinct
    candidate is returned as-is without consuming the rng.
    """
    from .model import fit_stack, residuals

    grid = list(grid)
    if not grid:
        raise ConfigError("tuning grid is empty")
    for candidate in grid:
        candidate.validate()
    tau = validate_tau(tau)
    first = {}  # what a candidate trains -> its first grid position
    stacks = {}  # what stacked candidates share -> their grid positions
    for k, c in enumerate(grid):
        widths = c.width_chain(_layout(c.mode, data.p, data.q)[1])
        key = (widths, c.learning_rate, c.epochs, c.minibatch,
               c.early_stop_patience)
        if key not in first:
            first[key] = k
            stacks.setdefault((c.mode, widths, c.minibatch), []).append(k)
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

    fitted = {}
    for positions in stacks.values():
        try:
            fits = fit_stack(train_data, tau, [grid[k] for k in positions],
                             [children[k] for k in positions])
        except ConfigError:
            raise
        except DplqrError as exc:
            fits = [exc] * len(positions)
        fitted.update(zip(positions, fits))

    best_config, best_loss = None, np.inf
    for k in first.values():
        if isinstance(fitted[k], DplqrError):
            warnings.warn(f"tuning candidate {grid[k]} failed: {fitted[k]}")
            continue
        score = mean_check_loss(residuals(fitted[k], val_data), tau)
        if np.isfinite(score) and score < best_loss:
            best_config, best_loss = grid[k], score
    if best_config is None:
        raise TrainingError("every tuning candidate failed to train")
    return best_config
