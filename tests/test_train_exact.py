"""train_joint against a plain reference copy of its training step.

The reference below trains the way the step was first written: every
layer input is hstack-augmented on each call, backprop runs the forward
pass a second time, and Adam updates theta and each layer as separate
arrays. train_joint, which reuses activation buffers and updates one
flat parameter vector in place, must reproduce it bit for bit.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from dplqr.errors import DataError
from dplqr.network import (activation_buffers, backward_batch,
                           forward_batch, init_params)
from dplqr.optimizer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON_HAT,
                             EarlyStopMonitor, TrainConfig, _holdout_split,
                             epoch_batches, train_joint)
from dplqr.quantile_loss import loss_subgrad_wrt_pred, mean_check_loss
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

    def loss_of(residuals):
        if tau is not None:
            return mean_check_loss(residuals, tau)
        return float(np.mean(residuals ** 2))

    monitor = EarlyStopMonitor(config.early_stop_patience)
    train_trace, val_trace, step = [], [], 0
    for _ in range(config.epochs):
        for batch in epoch_batches(len(tr_idx), minibatch, rng):
            xb, yb = x_tr[batch], y_tr[batch]
            resid = yb - xb @ theta
            if layers:
                zb = z_tr[batch]
                resid = resid - _reference_forward(layers, zb)[1]
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
        train_trace.append(loss_of(y_tr - predict_on(x_tr, z_tr)))
        val_trace.append(loss_of(y_val - predict_on(x_val, z_val)))
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
    (2, (3, 1), 0.7, 32),         # depth 1: no hidden buffers (lqr)
    (2, (0, 1), 0.5, 25),         # no z columns: the network is the
    (2, (0, 1), None, 25),        # intercept alone
])
def test_train_joint_matches_reference_step(p, widths, tau, minibatch):
    # the config's depth and hidden width name the chain train_joint builds
    y, x, z = _problem(120, p, 3, seed=p + minibatch)
    z = z[:, :widths[0]]
    config = TrainConfig(depth=len(widths) - 1,
                         width=max(widths[1:-1], default=8), epochs=25,
                         minibatch=minibatch, early_stop_patience=6,
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
