"""Tests for the feed-forward ReLU networks and their gradients."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dplqr import network
from dplqr.errors import ConfigError, DataError
from dplqr.network import (PASS_ROWS, NetworkParams, _forward,
                           activation_buffers, backward_batch, forward_batch,
                           init_params)
from dplqr.rng import make_rng


def test_depth_one_is_affine():
    # single layer, weights (2, -1) and bias 0.5 acting on z = (1, 1)
    params = NetworkParams((2, 1), [np.array([[2.0, -1.0, 0.5]])])
    assert_array_equal(forward_batch(params, np.array([[1.0, 1.0],
                                                       [0.0, 0.0]])),
                       [1.5, 0.5])


def test_two_layer_relu_kills_negative_unit():
    # hidden unit 1 gets pre-activation +2, unit 2 gets -2 and is zeroed;
    # output layer doubles the sum
    w1 = np.array([[1.0, 1.0, 0.0],
                   [-1.0, -1.0, 0.0]])
    w2 = np.array([[2.0, 2.0, 0.0]])
    params = NetworkParams((2, 2, 1), [w1, w2])
    assert forward_batch(params, np.array([[1.0, 1.0]]))[0] == 4.0


def test_input_width_checked():
    params = init_params((3, 2, 1), make_rng(0))
    with pytest.raises(DataError):
        forward_batch(params, np.array([[1.0, 2.0]]))
    with pytest.raises(DataError):
        forward_batch(params, np.ones((5, 4)))


def test_width_chain_validation():
    with pytest.raises(ConfigError):
        init_params((3,), make_rng(0))
    with pytest.raises(ConfigError):
        init_params((3, 2), make_rng(0))  # output width must be 1
    with pytest.raises(ConfigError):
        init_params((3, 0, 1), make_rng(0))
    with pytest.raises(ConfigError):
        init_params((-1, 1), make_rng(0))


def test_network_on_no_inputs_is_its_bias():
    params = init_params((0, 1), make_rng(0))
    params.layers[0][0, 0] = 2.5
    z = np.zeros((4, 0))
    assert_array_equal(forward_batch(params, z), np.full(4, 2.5))
    upstream = np.array([1.0, -2.0, 0.5, 3.0])
    grads = backward_batch(params, z, upstream)
    assert_array_equal(grads[0], [[upstream.sum()]])


def test_init_bounds_and_zero_bias():
    for seed in range(5):
        params = init_params((10, 6, 1), make_rng(seed))
        for w, fan_in, fan_out in zip(params.layers, (10, 6), (6, 1)):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w[:, :-1]) <= bound)
            assert np.all(w[:, -1] == 0.0)


def test_init_deterministic_from_seed():
    a = init_params((5, 4, 1), make_rng(8))
    b = init_params((5, 4, 1), make_rng(8))
    for wa, wb in zip(a.layers, b.layers):
        assert_allclose(wa, wb, rtol=0)


def test_backward_affine_layer():
    # depth 1: d(u * (w . (z, 1))) / dw = u * (z, 1)
    params = NetworkParams((2, 1), [np.array([[2.0, -1.0, 0.5]])])
    grads = backward_batch(params, np.array([[3.0, 4.0]]), np.array([2.0]))
    assert_allclose(grads[0], [[6.0, 8.0, 2.0]])


def _hidden_preactivations(params, z):
    """Pre-activation values of every hidden unit for one input vector."""
    a = np.atleast_1d(np.asarray(z, dtype=float))
    pre = []
    for w in params.layers[:-1]:
        s = w[:, :-1] @ a + w[:, -1]
        pre.append(s)
        a = np.maximum(s, 0.0)
    return np.concatenate(pre) if pre else np.array([])


def test_backward_matches_finite_differences():
    # central differences on every weight of small nets; draws whose
    # hidden pre-activations sit within 1e-3 of a relu kink are skipped
    # up front, so every remaining comparison is asserted strictly
    rng = make_rng(12)
    data_rng = np.random.default_rng(5)
    h = 1e-6
    checked = 0
    for trial in range(20):
        params = init_params((3, 5, 4, 1), rng)
        # move biases off zero so kinks are not sitting at the data
        for w in params.layers:
            w[:, -1] = data_rng.normal(size=w.shape[0]) * 0.3
        z = data_rng.normal(size=3)
        upstream = data_rng.normal()
        pre = _hidden_preactivations(params, z)
        if np.min(np.abs(pre)) < 1e-3:
            continue
        row = z.reshape(1, -1)
        grads = backward_batch(params, row, np.array([upstream]))
        for k, w in enumerate(params.layers):
            flat = w.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = upstream * forward_batch(params, row)[0]
                flat[idx] = orig - h
                down = upstream * forward_batch(params, row)[0]
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                got = grads[k].ravel()[idx]
                assert_allclose(got, fd, rtol=1e-4, atol=1e-7)
                checked += 1
    assert checked > 300


def test_backward_batch_sums_per_row_gradients():
    params = init_params((2, 3, 1), make_rng(1))
    z = np.array([[0.3, -0.2], [1.0, 0.5], [-0.4, 0.9]])
    u = np.array([1.0, -2.0, 0.5])
    batch = backward_batch(params, z, u)
    acc = [np.zeros_like(w) for w in params.layers]
    for row, weight in zip(z, u):
        per_row = backward_batch(params, row.reshape(1, -1),
                                 np.array([weight]))
        for k, g in enumerate(per_row):
            acc[k] += g
    for got, want in zip(batch, acc):
        assert_allclose(got, want, rtol=1e-10)


def test_upstream_length_checked():
    params = init_params((2, 1), make_rng(0))
    with pytest.raises(DataError):
        backward_batch(params, np.ones((3, 2)), np.ones(2))


def test_relu_network_positive_homogeneity():
    # scaling every weight matrix of a depth-2 net by c > 0 scales the
    # zero-bias output by c**2
    rng = make_rng(21)
    params = init_params((3, 6, 1), rng)
    z = np.array([[0.7, -0.3, 1.2]])
    base = forward_batch(params, z)[0]
    for c in (0.5, 2.0, 3.0):
        scaled = NetworkParams(params.widths,
                               [w * c for w in params.layers])
        assert_allclose(forward_batch(scaled, z)[0], c ** 2 * base,
                        rtol=1e-10)


def _one_pass(params, z):
    """Outputs of a single _forward pass over every row of z."""
    acts = activation_buffers(params.widths, z.shape[-2], *z.shape[:-2])
    return _forward(params.layers, z, acts)


@pytest.mark.parametrize("n", [2 * PASS_ROWS, 2 * PASS_ROWS + 1,
                               5 * PASS_ROWS - 3])
@pytest.mark.parametrize("widths", [(0, 1), (2, 1), (3, 8, 1),
                                    (4, 6, 5, 1)])
@pytest.mark.parametrize("members", [None, 2])
def test_row_blocks_give_the_bits_of_one_pass(n, widths, members):
    # (0, 1) and (q, 1) are the one-layer chains of x-only and lqr
    # models; (4, 6, 5, 1) has two hidden layers
    rng = make_rng(2)
    if members is None:
        params = init_params(widths, rng)
        z = rng.normal(size=(n, widths[0]))
    else:
        draws = [init_params(widths, rng) for _ in range(members)]
        params = NetworkParams(widths, [np.stack(layers) for layers in
                                        zip(*(d.layers for d in draws))])
        z = rng.normal(size=(members, n, widths[0]))
    for w in params.layers:
        # nonzero biases, so that the bias column takes part
        w[..., -1] = rng.normal(size=w.shape[:-1])
    with mock.patch.object(network, "_forward",
                           wraps=network._forward) as spy:
        got = forward_batch(params, z)
    assert spy.call_count == n // PASS_ROWS
    want = _one_pass(params, z)
    assert got.shape == want.shape == z.shape[:-1]
    assert got.tobytes() == want.tobytes()


def test_below_two_blocks_is_one_pass():
    params = init_params((3, 4, 1), make_rng(3))
    z = make_rng(4).normal(size=(2 * PASS_ROWS - 1, 3))
    with mock.patch.object(network, "_forward",
                           wraps=network._forward) as spy:
        got = forward_batch(params, z)
    assert spy.call_count == 1
    assert got.tobytes() == _one_pass(params, z).tobytes()


def test_forward_memory_is_one_block_of_buffers():
    widths, n = (10, 32, 32, 1), 40_000
    params = init_params(widths, make_rng(5))
    z = make_rng(6).normal(size=(n, widths[0]))
    # a block holds fewer than 2 * PASS_ROWS rows
    bound = (sum(b.nbytes for b in activation_buffers(widths, 2 * PASS_ROWS))
             + n * 8)
    tracemalloc.start()
    try:
        forward_batch(params, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
