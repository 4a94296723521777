"""Adam updates, minibatch scheduling, early stopping, and hold-out tuning.

The training engine here (`train_stack`) fits K independent models of
the form

    y_k  ~  x @ theta_k + net_k(z)

in lockstep, by minibatch Adam on either the check loss (quantile fits)
or squared error (projection fits), updating theta and every network
layer in the same step. The members share the rows x and z, the network and the minibatch; each has
its own target, learning rate, patience, epochs and rng. An internal
80/20 train/validation split of each member drives its epoch-level
early stopping; the parameters in effect when a member halts are the
ones returned for it. A member's split is two index sets into the
shared rows: each epoch gathers the training rows by index, and the
validation rows are gathered once. An epoch runs the network once per
step and once over the validation rows: its training loss is the
running mean of the losses its steps already computed, so no pass goes
over the training rows again.

What stacks follows from what fits share. `tune` trains the candidates
it keeps as one stack per network and minibatch (one stack of two
in the scenario grids), and `inference.covariance` trains its p
projections as one stack; `model.fit` and `train_joint` are the stack of
one. The code that makes a stack enters `train_ahead` itself, which
trains the stack and then hands each member out to the `train_joint`
call that would train it alone, so every fit still passes through
`model.fit` or `inference.fit_projection`. Each member's outputs are
byte for byte those of training it alone: every product is a stacked
`np.matmul`, which runs per member the BLAS call a lone network runs,
losses are reduced along each member's own row, and Adam is elementwise
(`tests/test_train_exact.py` pins this). Members leave the stack only at
the end of an epoch: one whose gradient turns non-finite is frozen until
then and leaves with the epoch's other leavers; the others' bytes do not
change.
A step costs per-call numpy overhead more than arithmetic, and a stack
shares that overhead: a scenario grid's pair of tuning candidates trains
in about 0.7 of the time of training the two one by one on case 1's
small networks, and in about 0.8 on case 3's wider ones (ROADMAP item 4
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
from .errors import ConfigError, DataError, TrainingError
from .quantile_loss import check_score, mean_check_loss, validate_tau
from .rng import _check_int, split

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON_HAT = 1e-7

VAL_SHARE = 0.2  # share of the rows a hold-out split keeps back
MIN_FIT_ROWS = 5  # rows a fit needs, its hold-out split included


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run; its randomness is the rng
    passed to `fit` or `tune`, not a setting.

    depth counts affine maps, so depth 1 is a pure affine model and
    depth L has L-1 hidden relu layers of the given width.
    A config trains a dplqr fit, the linear part plus network; dnqr is
    one with no x columns, which the CLI and `experiment` lay out. The
    exact linear baseline trains nothing and takes no config
    (`model.fit_lqr`). A config checks its fields when it is made, so
    `TrainConfig(...)` and `dataclasses.replace` raise ConfigError for a
    bad one. The training kernel, `train_stack`, checks the one rule
    that needs the data (`_check_rows`) and builds the network that
    `width_chain` names.
    """

    depth: int = 3
    width: int = 32
    epochs: int = 500
    minibatch: int = 64
    early_stop_patience: int = 50
    learning_rate: float = 0.01

    def __post_init__(self):
        for name in ("depth", "width", "epochs", "minibatch",
                     "early_stop_patience"):
            value = getattr(self, name)
            _check_int(value, name)
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        lr = self.learning_rate
        if (isinstance(lr, bool) or not isinstance(lr, numbers.Real)
                or not (np.isfinite(lr) and lr > 0)):
            raise ConfigError(f"learning_rate must be positive, got {lr!r}")

    def width_chain(self, n_in):
        """The width chain this config trains on n_in network inputs: one
        affine layer with no inputs (the intercept alone)."""
        depth = 1 if n_in == 0 else self.depth
        return (n_in,) + (self.width,) * (depth - 1) + (1,)


def _check_rows(config, n, split_of=None):
    """A fit of `config` on n rows needs MIN_FIT_ROWS of them (DataError),
    and its minibatch must not exceed the `_split_rows(n)` rows each of
    its epochs trains on (ConfigError). When the n rows are the tuning
    split of `split_of` rows, the message says so."""
    where = "" if split_of is None else f" in the tuning split of {split_of}"
    if n < MIN_FIT_ROWS:
        raise DataError(
            f"need at least {MIN_FIT_ROWS} rows to fit, got {n}{where}")
    n_tr = _split_rows(n)
    if config.minibatch > n_tr:
        raise ConfigError(f"minibatch {config.minibatch} exceeds the {n_tr}"
                          f" training rows of {n}{where}")


@dataclass
class TrainHistory:
    """Per-epoch loss traces; epochs are 1-indexed in best/stopped fields.

    train_loss[e] is the running training loss of epoch e: the sum, over
    its minibatch steps in order, of each step's per-row losses on the
    residuals it computed before its update, divided by the number of
    training rows. val_loss[e] is the mean loss on the validation rows
    after the epoch; early stopping reads it alone. While a member trains
    its history is its early-stop state (`_record_epoch`): best_epoch is
    the epoch of the lowest validation loss so far, the earliest on a
    tie, and stopped_epoch the last epoch recorded.
    """

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
    perm = rng.permutation(n)
    return [perm[i:i + minibatch] for i in range(0, n, minibatch)]


def _record_epoch(history, train_loss, val_loss, config):
    """Add one epoch's finite losses to a member's history; True means the
    member halts.

    The first epoch is best, and so is each later one whose validation
    loss is strictly below the best one's. The member halts once
    `early_stop_patience` epochs have passed since its best epoch, or at
    its last epoch.
    """
    history.train_loss.append(train_loss)
    history.val_loss.append(val_loss)
    epoch = history.stopped_epoch = len(history.val_loss)
    if epoch == 1 or val_loss < history.val_loss[history.best_epoch - 1]:
        history.best_epoch = epoch
    return (epoch - history.best_epoch >= config.early_stop_patience
            or epoch == config.epochs)


def _split_rows(n):
    """Rows a hold-out split of n rows trains on: all but
    max(1, int(n * VAL_SHARE))."""
    if n < 2:
        raise DataError(f"need at least 2 rows to hold out a split, got {n}")
    return n - max(1, int(n * VAL_SHARE))


def _holdout_split(n, rng):
    """Shuffled split holding out max(1, int(n * VAL_SHARE)) rows."""
    n_tr = _split_rows(n)
    perm = rng.permutation(n)
    return perm[:n_tr], perm[n_tr:]


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


def _views(flat, flat_grad, shapes, widths):
    """(theta, params, grad_theta, grad_layers) as views into a stack's
    flat vectors; theta and its gradient as (K, p, 1) columns."""
    theta, *layers = _unflatten(flat, shapes)
    grad_theta, *grad_layers = _unflatten(flat_grad, shapes)
    return (theta[..., None], net.NetworkParams(widths, layers),
            grad_theta[..., None], grad_layers)


def _losses(resid, tau):
    """Each row's loss and its slope in the prediction: the check loss
    resid * w, w = check_score(resid, tau), with slope -w at a tau, and
    squared error with slope -2 resid for tau None."""
    if tau is None:
        return resid ** 2, -2.0 * resid
    weight = check_score(resid, tau)
    return resid * weight, -weight


@np.errstate(over="ignore", invalid="ignore")
def train_stack(ys, x, z, configs, rngs, tau=None):
    """Minibatch-Adam fits of y_k ~ x @ theta_k + net_k(z), k < K, in lockstep.

    Parameters
    ----------
    ys : (K, n) targets, one row per member
    x : (n, p) linear-part covariates every member trains on; p may be 0
    z : (n, q) network inputs every member trains on; q may be 0. A
        block that is not 2-d with n rows (a 1-d x too) raises DataError
        ("x must have shape (n, p), got ...") before any rng is drawn
    configs : one TrainConfig per member, each checked against the rows
        (`_check_rows`) before any rng is drawn from. They must name the
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
    permutation per epoch it trains, as it does trained alone. An epoch
    gathers each member's training rows, in that permutation, by index
    from the shared ys, x and z; the validation rows, read in the same
    order every epoch, are gathered once.
    Every member's theta and layers are views into one (K, P) flat
    vector and its gradients are written into views of one (K, P)
    gradient, so one in-place `adam_step` call, with a (K, 1) learning
    rate, updates them all; Adam is elementwise, so this gives the same
    bits as one update per array. One set of activation buffers
    (`network.activation_buffers`, sized for a minibatch or the
    validation rows, whichever is more) serves every pass: a step's
    forward pass leaves its layer inputs there for its backward pass,
    and the epoch's validation pass reuses them. Each step also adds each
    member's losses on the residuals it computed, summed along that
    member's own row, to its running training loss; no pass goes over
    the training rows at the end of an epoch. Each member's TrainHistory,
    made before epoch 1, records its losses and decides when it halts
    (`_record_epoch`). Members leave only at the end of an epoch, in one
    pass, and draw nothing more: one that halts keeps the parameters of
    its halt; one whose gradient turned non-finite fails with that error,
    frozen (gradient row and learning rate zeroed) for the rest of the
    epoch; one whose training or validation loss is not finite fails
    before the epoch is recorded. The others' bytes do not change.
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
    for name, block, cols in (("x", x, "p"), ("z", z, "q")):
        if block.ndim != 2 or block.shape[0] != n:
            raise DataError(
                f"{name} must have shape ({n}, {cols}), got {block.shape}")
    if tau is not None:
        tau = validate_tau(tau)
    for config in configs:
        _check_rows(config, n)
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
    val_y, val_x, val_z = (ys[np.arange(len(configs))[:, None], val_idx],
                           x[val_idx], z[val_idx])
    n_tr = tr_idx.shape[1]

    p = x.shape[1]
    shapes = [(p,)] + [w.shape for w in inits[0]]
    flat = np.array([np.concatenate([np.zeros(p)]
                                    + [w.ravel() for w in layers])
                     for layers in inits])
    flat_grad = np.empty_like(flat)
    state = init_adam(flat)
    lr = np.array([[c.learning_rate] for c in configs])
    acts = net.activation_buffers(widths, max(minibatch, val_idx.shape[1]),
                                  len(configs))
    histories = [TrainHistory([], [], best_epoch=0, stopped_epoch=0)
                 for _ in configs]
    results = [None] * len(configs)
    members = list(range(len(configs)))  # stack position -> member
    theta, params, grad_theta, grad_layers = _views(flat, flat_grad, shapes,
                                                    widths)
    epoch = 0
    while members:
        epoch += 1
        # each member's training rows in its own order for this epoch,
        # gathered from the shared rows; a step's minibatch is a slice
        rows = np.array(members)[:, None]
        order = tr_idx[rows, [rngs[m].permutation(n_tr) for m in members]]
        y_ord = ys[rows, order]
        x_ord, z_ord = np.take(x, order, axis=0), np.take(z, order, axis=0)
        tr_sum = np.zeros(len(members))
        failed = {}  # stack position -> the error that stops it
        for start in range(0, n_tr, minibatch):
            stop = start + minibatch
            xb, zb = x_ord[:, start:stop], z_ord[:, start:stop]
            size = xb.shape[1]
            resid = y_ord[:, start:stop]
            if p:  # with no linear part x @ theta is +0.0, a no-op to subtract
                resid = resid - (xb @ theta)[..., 0]
            resid = resid - net.forward_batch(params, zb, acts)
            loss, slope = _losses(resid, tau)
            tr_sum += loss.sum(axis=-1)
            upstream = slope / size
            if p:
                np.matmul(xb.swapaxes(-1, -2), upstream[..., None],
                          out=grad_theta)
            net.backward_batch(params, zb, upstream, acts, grad_layers)
            try:
                adam_step(state, flat, flat_grad, lr)
            except TrainingError as exc:
                # freeze the members whose gradient is not finite until the
                # epoch ends: Adam is elementwise, so lr 0 leaves them as is
                bad = ~np.isfinite(flat_grad).all(axis=1)
                for pos in np.flatnonzero(bad).tolist():
                    failed.setdefault(pos, exc)
                flat_grad[bad] = 0.0
                lr[bad] = 0.0
                adam_step(state, flat, flat_grad, lr)

        val_resid = val_y - ((val_x @ theta)[..., 0]
                             + net.forward_batch(params, val_z, acts))
        keep = []
        for pos, (member, tr_loss, val_loss) in enumerate(zip(
                members, (tr_sum / n_tr).tolist(),
                np.mean(_losses(val_resid, tau)[0], axis=-1).tolist())):
            if not (math.isfinite(tr_loss) and math.isfinite(val_loss)):
                failed.setdefault(pos, TrainingError(
                    f"non-finite loss at epoch {epoch}; try a lower"
                    f" learning rate"))
            if pos in failed:
                results[member] = failed[pos]
            elif _record_epoch(histories[member], tr_loss, val_loss,
                               configs[member]):
                own = _unflatten(flat[pos].copy(), shapes)
                results[member] = (own[0], net.NetworkParams(widths, own[1:]),
                                   histories[member])
            else:
                keep.append(pos)
        if len(keep) < len(members):
            members = [members[pos] for pos in keep]
            flat, flat_grad, lr = flat[keep], flat_grad[keep], lr[keep]
            state.first_moment = state.first_moment[keep]
            state.second_moment = state.second_moment[keep]
            val_y, val_x, val_z = val_y[keep], val_x[keep], val_z[keep]
            acts = [buffer[:len(keep)] for buffer in acts]
            theta, params, grad_theta, grad_layers = _views(
                flat, flat_grad, shapes, widths)
    return results


# What `train_ahead` trained and `train_joint` has not handed out yet:
# id(rng) -> (y, x, z, config, rng, rng state, tau, result) of one member.
# An entry holds its rng, so no other live object can take its id.
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
    m_y, m_x, m_z, m_config, _, m_state, m_tau, result = member
    if (m_config != config or m_tau != tau
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
    z : (n, q) network inputs; q may be 0. Either block not 2-d with n
        rows raises DataError before the rng is drawn from
    config : TrainConfig, checked against the rows (`_check_rows`)
        before the rng is drawn from. The network is
        `config.width_chain(q)`, so with q = 0 it is (0, 1), a learned
        intercept
    rng : numpy Generator driving the split, init, and batch order
    tau : quantile level for check loss, or None for squared error

    Returns
    -------
    (theta, params, history) with theta shape (p,), params a
    NetworkParams, and history a TrainHistory, whose train_loss is the
    running loss of each epoch's steps. The returned parameters are the
    ones current when training halted; the history decides when to halt
    and records which epoch was best on validation. A non-finite
    gradient, or a non-finite training or validation loss at the end of
    an epoch, raises TrainingError. Inside a `train_ahead` block, a
    member that block trained is handed out instead of trained again.
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


def tuning_plan(grid, n, q):
    """What `tune` trains for `grid` on n rows of q network covariates,
    checked before anything trains.

    An empty grid raises ConfigError. Every candidate is checked by the
    kernel's rule (`_check_rows`) against the rows it is fitted on: the
    n rows for a grid of one distinct candidate, otherwise the tuning
    split of n, whose size the messages then name. Returns None for a
    grid of one distinct candidate, which tune returns as it is;
    otherwise the grid positions of the distinct candidates, grouped
    into the stacks they train as and keyed by the network and
    minibatch each stack shares.
    """
    if not grid:
        raise ConfigError("tuning grid is empty")
    seen = set()  # what a kept candidate trains
    stacks = {}  # what stacked candidates share -> their grid positions
    for k, c in enumerate(grid):
        widths = c.width_chain(q)
        key = (widths, c.learning_rate, c.epochs, c.minibatch,
               c.early_stop_patience)
        if key not in seen:
            seen.add(key)
            stacks.setdefault((widths, c.minibatch), []).append(k)
    if len(seen) == 1:
        _check_rows(grid[0], n)
        return None
    for candidate in grid:
        _check_rows(candidate, _split_rows(n), split_of=n)
    return stacks


def tune(grid, data, tau, rng):
    """Pick the best TrainConfig from a grid by hold-out check loss.

    `rng` splits `data` 80/20 once and gives one child stream per grid
    position. Each candidate is fitted on the 80% with its child, scored
    by mean check loss of full-model residuals on the 20%, and the
    winner is returned (ties go to the earlier grid entry). A candidate
    is skipped when an earlier one trains the same network on `data`
    (any depth and width with no z columns) with the same lr, epochs,
    minibatch and patience. The kept candidates that share their network
    and minibatch train ahead as one stack (`train_ahead`), and
    `model.fit` then hands out each one's fit, the one it would get
    alone. A bad tau raises ConfigError. `tuning_plan` checks each
    candidate by the rule of a fit on the 80% split, so too small a
    split raises DataError and a minibatch above 80% of it ConfigError.
    All come before the rng is drawn from. Each candidate fails alone:
    one that fails to train is skipped with a warning, and if all fail,
    a TrainingError is raised. A grid of one distinct candidate is
    returned as-is without consuming the rng. The exact linear
    baseline, which trains nothing, is never tuned (`model.fit_lqr`).
    """
    from .model import fit, residuals

    grid = list(grid)
    tau = validate_tau(tau)
    stacks = tuning_plan(grid, data.n, data.q)
    if stacks is None:
        return grid[0]

    tr_idx, val_idx = _holdout_split(data.n, rng)
    train_data = data.subset(tr_idx)
    val_data = data.subset(val_idx)
    children = split(rng, len(grid))

    fitted = {}
    for positions in stacks.values():
        ys = np.broadcast_to(train_data.y, (len(positions), train_data.n))
        with train_ahead(ys, train_data.x, train_data.z,
                         [grid[k] for k in positions],
                         [children[k] for k in positions], tau=tau):
            for k in positions:
                try:
                    fitted[k] = fit(train_data, tau, grid[k], children[k])
                except TrainingError as exc:
                    fitted[k] = exc

    best_config, best_loss = None, np.inf
    for k in sorted(fitted):  # grid order, so ties go to the earlier entry
        if isinstance(fitted[k], TrainingError):
            warnings.warn(f"tuning candidate {grid[k]} failed: {fitted[k]}")
            continue
        score = mean_check_loss(residuals(fitted[k], val_data), tau)
        if np.isfinite(score) and score < best_loss:
            best_config, best_loss = grid[k], score
    if best_config is None:
        raise TrainingError("every tuning candidate failed to train")
    return best_config
