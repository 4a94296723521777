"""train_joint against a plain reference copy of its training step.

The reference below trains the way the step was first written: every
layer input is hstack-augmented on each call, backprop runs the forward
pass a second time, and Adam updates theta and each layer as separate
arrays, with its own check-loss subgradient and early-stop monitor.
train_joint, which reuses activation buffers, updates one flat parameter
vector in place and keeps its early-stop state in its TrainHistory, must
reproduce it bit for bit. A stack of members trained by train_stack must
in turn give each member, bit for bit, what train_joint gives it alone,
and train_joint inside train_ahead must hand each member out as if it
trained it.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dplqr import optimizer
from dplqr.errors import ConfigError, DataError, TrainingError
from dplqr.network import (NetworkParams, activation_buffers,
                           backward_batch, forward_batch, init_params)
from dplqr.optimizer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON_HAT,
                             TrainConfig, _holdout_split, epoch_batches,
                             train_ahead, train_joint, train_stack)
from dplqr.quantile_loss import check_loss, validate_tau
from dplqr.rng import make_rng


def _hstack_ones(a):
    return np.hstack([a, np.ones((a.shape[0], 1))])


def _reference_forward(layers, z):
    acts, a = [z], z
    for k, w in enumerate(layers):
        a = _hstack_ones(a) @ w.T
        if k < len(layers) - 1:
            a = np.maximum(a, 0.0)
            acts.append(a)
    return acts, a[:, 0]


def _reference_backward(layers, z, upstream):
    acts, _ = _reference_forward(layers, z)
    grads = [None] * len(layers)
    delta = upstream.reshape(-1, 1)
    for k in range(len(layers) - 1, -1, -1):
        grads[k] = delta.T @ _hstack_ones(acts[k])
        if k > 0:
            delta = (delta @ layers[k][:, :-1]) * (acts[k] > 0.0)
    return grads


def _reference_adam(moments, step, params, grads, lr):
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    out = []
    for p, g, (m, v) in zip(params, grads, moments):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        out.append(p - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON_HAT))
    return out


def loss_subgrad_wrt_pred(residual, tau):
    """Subgradient of rho_tau(y - yhat) with respect to yhat.

    Equals -(tau - 1{residual < 0}); the indicator is strict, so a zero
    residual yields -tau. Vectorized over residual.
    """
    tau = validate_tau(tau)
    r = np.asarray(residual, dtype=float)
    out = (r < 0.0) - tau
    return float(out) if out.ndim == 0 else out


def test_subgrad_hand_values():
    assert loss_subgrad_wrt_pred(2.0, 0.5) == -0.5
    assert loss_subgrad_wrt_pred(-1.0, 0.5) == 0.5
    assert_allclose(loss_subgrad_wrt_pred(0.0, 0.2), -0.2)


def test_subgrad_vectorized():
    r = np.array([2.0, -1.0, 0.0])
    g = loss_subgrad_wrt_pred(r, 0.5)
    assert_allclose(g, [-0.5, 0.5, -0.5])


def test_subgrad_matches_finite_difference_away_from_kink():
    # d/dpred rho_tau(y - pred) at points where the residual is not 0
    rng = np.random.default_rng(2)
    h = 1e-7
    for _ in range(100):
        y = rng.normal() * 3
        pred = rng.normal() * 3
        tau = rng.uniform(0.1, 0.9)
        r = y - pred
        if abs(r) < 1e-3:
            continue
        fd = (check_loss(y - (pred + h), tau)
              - check_loss(y - (pred - h), tau)) / (2 * h)
        assert_allclose(loss_subgrad_wrt_pred(r, tau), fd, atol=1e-6)


class _ReferenceMonitor:
    """Stops training after `patience` epochs without strict improvement.

    A NaN validation loss counts as no improvement. best_epoch is the
    1-indexed epoch of the best loss seen so far.
    """

    def __init__(self, patience):
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


def _reference_train(y, x, z, widths, config, rng, tau):
    tr_idx, val_idx = _holdout_split(len(y), rng)
    y_tr, y_val, x_tr, x_val = y[tr_idx], y[val_idx], x[tr_idx], x[val_idx]
    layers, z_tr, z_val = [], None, None
    if widths is not None:
        z_tr, z_val = z[tr_idx], z[val_idx]
        layers = init_params(widths, rng).layers
    theta = np.zeros(x.shape[1])
    moments = [(np.zeros_like(p), np.zeros_like(p))
               for p in [theta] + layers]
    minibatch = min(config.minibatch, len(tr_idx))

    def predict_on(xs, zs):
        out = xs @ theta
        if layers:
            out = out + _reference_forward(layers, zs)[1]
        return out

    def losses(residuals):
        if tau is not None:
            return check_loss(residuals, tau)
        return residuals ** 2

    monitor = _ReferenceMonitor(config.early_stop_patience)
    train_trace, val_trace, step = [], [], 0
    for _ in range(config.epochs):
        # the training loss is the running one: each step's losses on the
        # residuals it computed before its update
        train_sum = 0.0
        for batch in epoch_batches(len(tr_idx), minibatch, rng):
            xb, yb = x_tr[batch], y_tr[batch]
            resid = yb - xb @ theta
            if layers:
                zb = z_tr[batch]
                resid = resid - _reference_forward(layers, zb)[1]
            train_sum += np.sum(losses(resid))
            if tau is not None:
                upstream = loss_subgrad_wrt_pred(resid, tau) / len(batch)
            else:
                upstream = -2.0 * resid / len(batch)
            grads = [xb.T @ upstream]
            if layers:
                grads += _reference_backward(layers, zb, upstream)
            step += 1
            updated = _reference_adam(moments, step, [theta] + layers,
                                      grads, config.learning_rate)
            theta, layers = updated[0], updated[1:]
        train_trace.append(float(train_sum / len(tr_idx)))
        val_resid = y_val - predict_on(x_val, z_val)
        val_trace.append(float(np.mean(losses(val_resid))))
        if monitor.update(val_trace[-1]):
            break
    return theta, layers, train_trace, val_trace, monitor


def _problem(n, p, q, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    z = rng.uniform(0, 2, size=(n, q))
    y = x.sum(axis=1) + np.sin(3 * z).sum(axis=1) + 0.3 * rng.normal(size=n)
    return y, x, z


@pytest.mark.parametrize("p, widths, tau, minibatch", [
    (2, (3, 8, 8, 1), 0.5, 32),   # check loss, 96 rows in 3 full batches
    (2, (3, 8, 8, 1), 0.3, 50),   # short last batch of 46 rows
    (2, (3, 6, 1), None, 40),     # squared error, as in projection fits
    (0, (3, 8, 8, 1), 0.5, 32),   # p = 0: no linear part (dnqr)
    (2, (3, 1), 0.7, 32),         # depth 1: no hidden buffers
    (2, (0, 1), 0.5, 25),         # no z columns: the network is the
    (2, (0, 1), None, 25),        # intercept alone
])
def test_train_joint_matches_reference_step(p, widths, tau, minibatch):
    _assert_matches_reference_step(p, widths, tau, minibatch, patience=6)


def test_train_joint_matches_reference_step_halting_on_patience():
    # patience 1, the least: the first epoch without a new best halts
    # (epoch 6 of 25 here; the first case above halts at 20 on patience 6)
    history, config = _assert_matches_reference_step(
        2, (3, 8, 8, 1), 0.3, 50, patience=1)
    assert history.stopped_epoch == history.best_epoch + 1 < config.epochs


def _assert_matches_reference_step(p, widths, tau, minibatch, patience):
    """Train one problem with train_joint and the reference step, assert
    the same bits, and return train_joint's history and config."""
    # the config's depth and hidden width name the chain train_joint builds
    y, x, z = _problem(120, p, 3, seed=p + minibatch)
    z = z[:, :widths[0]]
    config = TrainConfig(depth=len(widths) - 1,
                         width=max(widths[1:-1], default=8), epochs=25,
                         minibatch=minibatch, early_stop_patience=patience,
                         learning_rate=0.02)
    theta, params, history = train_joint(
        y, x, z, config, make_rng(11), tau=tau)
    assert params.widths == widths
    ref_theta, ref_layers, ref_train, ref_val, monitor = _reference_train(
        y, x, z, widths, config, make_rng(11), tau)

    assert_array_equal(theta, ref_theta)
    assert len(params.layers) == len(ref_layers)
    for got, want in zip(params.layers, ref_layers):
        assert_array_equal(got, want)
    assert_array_equal(history.train_loss, ref_train)
    assert_array_equal(history.val_loss, ref_val)
    assert history.stopped_epoch == monitor.epochs_seen
    assert history.best_epoch == max(monitor.best_epoch, 1)
    return history, config


@pytest.mark.parametrize("widths", [(4, 1), (4, 7, 1), (4, 16, 9, 1)])
def test_backward_from_forward_buffers_matches_recomputing_path(widths):
    rng = make_rng(3)
    params = init_params(widths, rng)
    for w in params.layers:
        w[:, -1] = rng.normal(size=w.shape[0]) * 0.2
    acts = activation_buffers(widths, 50)
    for rows in (50, 17, 1):  # full buffers, then prefixes of them
        z = rng.normal(size=(rows, widths[0]))
        upstream = rng.normal(size=rows)
        out = forward_batch(params, z, acts)
        assert_array_equal(out, forward_batch(params, z))
        assert_array_equal(out, _reference_forward(params.layers, z)[1])
        got = backward_batch(params, z, upstream, acts)
        recomputed = backward_batch(params, z, upstream)
        reference = _reference_backward(params.layers, z, upstream)
        for g, r, ref in zip(got, recomputed, reference):
            assert_array_equal(g, r)
            assert_array_equal(g, ref)


@pytest.mark.parametrize("widths", [(4, 1), (4, 7, 1), (0, 1),
                                    (4, 16, 9, 1)])
def test_stacked_passes_match_each_member_alone(widths):
    rng = make_rng(5)
    members = [init_params(widths, rng) for _ in range(3)]
    stack = NetworkParams(widths, [np.stack(layers) for layers in
                                   zip(*(m.layers for m in members))])
    z = rng.normal(size=(3, 20, widths[0]))
    upstream = rng.normal(size=(3, 20))
    acts = activation_buffers(widths, 20, 3)
    out = forward_batch(stack, z, acts)
    grads = backward_batch(stack, z, upstream, acts)
    for k, member in enumerate(members):
        assert out[k].tobytes() == forward_batch(member, z[k]).tobytes()
        alone = backward_batch(member, z[k], upstream[k])
        for g, ref in zip(grads, alone):
            assert g[k].tobytes() == ref.tobytes()


def test_stacked_calls_check_their_inputs():
    layers = init_params((3, 5, 1), make_rng(0)).layers
    stack = NetworkParams((3, 5, 1), [np.stack([w, w]) for w in layers])
    acts = activation_buffers(stack.widths, 4, 2)
    with pytest.raises(DataError):  # three members' inputs for two
        forward_batch(stack, np.ones((3, 4, 3)))
    with pytest.raises(DataError):  # one network's rows for a stack
        forward_batch(stack, np.ones((4, 3)))
    with pytest.raises(DataError):  # buffers of another stack size
        forward_batch(stack, np.ones((2, 4, 3)),
                      activation_buffers(stack.widths, 4, 3))
    with pytest.raises(DataError):  # one upstream weight short per member
        backward_batch(stack, np.ones((2, 4, 3)), np.ones((2, 3)), acts)


def test_buffered_calls_check_their_inputs():
    params = init_params((3, 5, 1), make_rng(0))
    acts = activation_buffers(params.widths, 4)
    with pytest.raises(DataError):  # wrong width
        forward_batch(params, np.ones((4, 4)), acts)
    with pytest.raises(DataError):  # more rows than the buffers hold
        forward_batch(params, np.ones((5, 3)), acts)
    with pytest.raises(DataError):
        backward_batch(params, np.ones((4, 4)), np.ones(4), acts)
    with pytest.raises(DataError):
        backward_batch(params, np.ones((5, 3)), np.ones(5), acts)


def _assert_same_bytes(got, want):
    (theta, params, history), (ref_theta, ref_params, ref_history) = got, want
    assert theta.shape == ref_theta.shape
    assert theta.tobytes() == ref_theta.tobytes()
    assert params.widths == ref_params.widths
    assert len(params.layers) == len(ref_params.layers)
    for layer, ref_layer in zip(params.layers, ref_params.layers):
        assert layer.shape == ref_layer.shape
        assert layer.tobytes() == ref_layer.tobytes()
    for trace, ref_trace in ((history.train_loss, ref_history.train_loss),
                             (history.val_loss, ref_history.val_loss)):
        assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()
    assert history.best_epoch == ref_history.best_epoch
    assert history.stopped_epoch == ref_history.stopped_epoch


@pytest.mark.parametrize("p, widths, tau, own_targets", [
    (2, (3, 8, 8, 1), 0.5, False),  # check loss, as tune's candidates
    (0, (3, 6, 1), None, True),     # squared error, as the projections
    (0, (3, 8, 1), 0.3, False),     # p = 0: no linear part (dnqr)
], ids=["check-loss", "squared-loss", "no-linear-part"])
def test_stacked_members_match_training_alone(p, widths, tau, own_targets):
    # three members with their own learning rate, patience and epochs,
    # so they leave the stack at different epochs
    y, x, z = _problem(150, p, 3, seed=7 + p)
    ys = np.stack([y, y + np.sin(z[:, 0]), 2.0 * y]) if own_targets \
        else np.stack([y] * 3)
    configs = [TrainConfig(depth=len(widths) - 1, width=max(widths[1:-1]),
                           epochs=epochs, minibatch=32,
                           early_stop_patience=patience, learning_rate=lr)
               for lr, patience, epochs in ((0.05, 3, 40), (0.01, 8, 12),
                                            (0.02, 5, 60))]
    stacked = train_stack(ys, x, z, configs,
                          [make_rng(seed) for seed in (1, 2, 3)], tau)
    stopped = {result[2].stopped_epoch for result in stacked}
    assert len(stopped) == 3
    for k, config in enumerate(configs):
        alone = train_joint(ys[k], x, z, config, make_rng(k + 1), tau)
        assert alone[1].widths == widths
        _assert_same_bytes(stacked[k], alone)


def test_stack_members_must_share_network_and_minibatch():
    y, x, z = _problem(60, 2, 3, seed=0)
    base = TrainConfig(depth=2, width=4, epochs=2, minibatch=16)
    for other in (TrainConfig(depth=2, width=8, epochs=2, minibatch=16),
                  TrainConfig(depth=2, width=4, epochs=2, minibatch=8)):
        with pytest.raises(ConfigError, match="share"):
            train_stack(np.stack([y, y]), x, z, [base, other],
                        [make_rng(0), make_rng(1)], 0.5)


def test_failing_members_leave_the_others_unchanged():
    # squared error on targets near the float limit: member 1's gradient
    # overflows in its first step, which turns its parameters NaN, and
    # member 2's loss overflows; both fail at the end of epoch 1, and
    # members 0 and 3 train on as they would alone
    y, _, z = _problem(120, 0, 3, seed=5)
    x = np.zeros((120, 0))
    ys = np.stack([y, np.full(120, 1.5e308), 1e200 * (2.0 + y), -y])
    config = TrainConfig(depth=2, width=6, epochs=15, minibatch=20,
                         early_stop_patience=4, learning_rate=0.02)
    stacked = train_stack(ys, x, z, [config] * 4,
                          [make_rng(seed) for seed in range(4)])
    for k in (1, 2):
        assert str(stacked[k]) == ("non-finite loss at epoch 1; try a lower"
                                   " learning rate")
    for k in range(4):
        if k in (1, 2):
            with pytest.raises(TrainingError) as alone:
                train_joint(ys[k], x, z, config, make_rng(k))
            assert str(alone.value) == str(stacked[k])
        else:
            _assert_same_bytes(stacked[k],
                               train_joint(ys[k], x, z, config, make_rng(k)))


def test_a_stack_whose_every_gradient_overflows_fails_as_alone():
    # squared error on targets near the float limit: every member's
    # gradient overflows in its first step, so every member's loss is
    # not finite when epoch 1 ends, when all leave and the call returns;
    # each leaves with the error training it alone raises, and its rng
    # drawn as far as training it alone draws it
    y, x, z = _problem(90, 2, 3, seed=4411)
    ys = np.stack([np.full(90, 1.5e308), 1.5e308 - y, np.full(90, -1.7e308)])
    configs = [TrainConfig(depth=2, width=5, epochs=10, minibatch=16,
                           early_stop_patience=3, learning_rate=lr)
               for lr in (0.01, 0.02, 0.05)]
    seeds = (4412, 4413, 4414)
    rngs = [make_rng(seed) for seed in seeds]
    stacked = train_stack(ys, x, z, configs, rngs)
    for k, config in enumerate(configs):
        rng = make_rng(seeds[k])
        with pytest.raises(TrainingError) as alone:
            train_joint(ys[k], x, z, config, rng)
        assert isinstance(stacked[k], TrainingError)
        assert str(stacked[k]) == str(alone.value)
        assert str(stacked[k]).startswith("non-finite loss at epoch 1;")
        assert rngs[k].random() == rng.random()


def test_a_nan_parameter_makes_every_output_nan():
    # the fact the kernel's one failure rule rests on: a NaN in any
    # single entry of theta or of a layer, weight or bias, turns every
    # output NaN, so a member whose gradient turned non-finite fails at
    # that epoch's validation pass. Hidden unit 0 is dead on every row
    # and x's second column is all zero: a NaN multiplied by their
    # zeros still reaches every output
    rng = make_rng(8294)
    x = np.column_stack([rng.normal(size=40), np.zeros(40)])
    z = rng.normal(size=(40, 3))
    params = init_params((3, 5, 4, 1), rng)
    params.layers[0][0] = [0.0, 0.0, 0.0, -1.0]
    shapes = [(2,)] + [layer.shape for layer in params.layers]
    flat = np.concatenate([rng.normal(size=2)]
                          + [layer.ravel() for layer in params.layers])

    def outputs(vector):
        theta, *layers = optimizer._unflatten(vector, shapes)
        return x @ theta + forward_batch(NetworkParams(params.widths, layers),
                                         z)

    assert np.isfinite(outputs(flat)).all()
    assert flat.size == 51
    for pos in range(flat.size):
        bad = flat.copy()
        bad[pos] = np.nan
        assert np.isnan(outputs(bad)).all(), pos


def _nan_in_gradient(monkeypatch, pos, call):
    """Make the kernel's `call`-th backward pass write NaN into the first
    layer gradient of the member at stack position pos."""
    calls = [0]
    backward = optimizer.net.backward_batch

    def poisoned(*args):
        grads = backward(*args)
        calls[0] += 1
        if calls[0] == call:
            grads[0][pos, 0, 0] = np.nan
        return grads
    monkeypatch.setattr(optimizer.net, "backward_batch", poisoned)


def test_a_nan_gradient_fails_its_member_when_that_epoch_ends(monkeypatch):
    # NaN in member 1's gradient at the last of epoch 2's four steps:
    # member 1 fails when epoch 2 ends, as it does alone with the same
    # NaN and with its rng drawn as far; the other members give the
    # bytes they give alone
    y, x, z = _problem(100, 2, 3, seed=8295)
    ys = np.stack([y, y + np.sin(z[:, 0]), -y])
    configs = [TrainConfig(depth=2, width=6, epochs=8, minibatch=20,
                           early_stop_patience=8, learning_rate=lr)
               for lr in (0.01, 0.02, 0.05)]
    seeds = (8296, 8297, 8298)
    rngs = [make_rng(seed) for seed in seeds]
    with monkeypatch.context() as patch:
        _nan_in_gradient(patch, 1, 2 * 4)
        stacked = train_stack(ys, x, z, configs, rngs, 0.5)
    with monkeypatch.context() as patch:
        _nan_in_gradient(patch, 0, 2 * 4)
        rng = make_rng(seeds[1])
        with pytest.raises(TrainingError) as alone:
            train_joint(ys[1], x, z, configs[1], rng, 0.5)
    assert str(stacked[1]) == str(alone.value) == (
        "non-finite loss at epoch 2; try a lower learning rate")
    assert rngs[1].random() == rng.random()
    for k in (0, 2):
        _assert_same_bytes(stacked[k], train_joint(ys[k], x, z, configs[k],
                                                   make_rng(seeds[k]), 0.5))


def test_an_overflowing_second_moment_fails_its_member():
    # at lr 1e70 a squared-loss fit with one step an epoch soon has a
    # gradient entry above about 1.3e154, which squares to inf in Adam's
    # second moment and would freeze that parameter: with every loss
    # still finite, the member fails when that epoch ends instead of
    # halting frozen after 51 epochs; a member beside it in the stack
    # gives the bytes it gives alone
    y, x, z = _problem(100, 2, 3, seed=8301)
    configs = [TrainConfig(depth=2, width=8, minibatch=80, learning_rate=lr)
               for lr in (1e70, 0.01)]
    with pytest.raises(TrainingError, match=(
            "^non-finite Adam second moment at epoch 2; try a lower"
            " learning rate$")):
        train_joint(y, x, z, configs[0], make_rng(8302), None)
    stacked = train_stack(np.stack([y, y]), x, z, configs,
                          [make_rng(8302), make_rng(8303)], None)
    assert isinstance(stacked[0], TrainingError)
    _assert_same_bytes(stacked[1], train_joint(y, x, z, configs[1],
                                               make_rng(8303), None))


def test_trained_ahead_members_are_handed_out_once(monkeypatch):
    # inside the block, train_joint on a member returns what training it
    # alone returns; a second call, a call after the block, a call with
    # another config, y or tau and a call on an rng drawn from since all
    # train anew from where the rng stands, as they would after training
    # alone
    y, x, z = _problem(80, 2, 3, seed=11)
    ys = np.stack([y, y])
    configs = [TrainConfig(depth=2, width=4, epochs=6, minibatch=16,
                           early_stop_patience=6, learning_rate=lr)
               for lr in (0.01, 0.03)]

    def alone(*runs):
        rng, results = make_rng(runs[0][1]), []
        for config, _ in runs:
            results.append(train_joint(y, x, z, config, rng, 0.5))
        return results

    rngs = [make_rng(1), make_rng(2)]
    with train_ahead(ys, x, z, configs, rngs, 0.5):
        stacks = []

        def counted(ys, *args):
            stacks.append(len(ys))
            return train_stack(ys, *args)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "train_stack", counted)
            first = train_joint(y, x, z, configs[0], rngs[0], 0.5)
            assert stacks == []
            again = train_joint(y, x, z, configs[0], rngs[0], 0.5)
            assert stacks == [1]
    after = train_joint(y, x, z, configs[1], rngs[1], 0.5)
    want = alone((configs[0], 1), (configs[0], 1))
    _assert_same_bytes(first, want[0])
    _assert_same_bytes(again, want[1])
    _assert_same_bytes(after, alone((configs[1], 2), (configs[1], 2))[1])

    rngs = [make_rng(seed) for seed in (1, 2, 3, 4)]
    with train_ahead(np.stack([y] * 4), x, z, configs * 2, rngs, 0.5):
        other = train_joint(y, x, z, configs[1], rngs[0], 0.5)
        rngs[1].integers(2)
        drawn = train_joint(y, x, z, configs[1], rngs[1], 0.5)
        shifted = train_joint(y + 1.0, x, z, configs[0], rngs[2], 0.5)
        other_tau = train_joint(y, x, z, configs[1], rngs[3], 0.3)
    _assert_same_bytes(other, alone((configs[0], 1), (configs[1], 1))[1])
    rng = make_rng(2)
    train_joint(y, x, z, configs[1], rng, 0.5)
    rng.integers(2)
    _assert_same_bytes(drawn, train_joint(y, x, z, configs[1], rng, 0.5))
    rng = make_rng(3)
    train_joint(y, x, z, configs[0], rng, 0.5)
    _assert_same_bytes(shifted,
                       train_joint(y + 1.0, x, z, configs[0], rng, 0.5))
    rng = make_rng(4)
    train_joint(y, x, z, configs[1], rng, 0.5)
    _assert_same_bytes(other_tau, train_joint(y, x, z, configs[1], rng, 0.3))
