"""Feed-forward ReLU networks with explicit reverse-mode gradients.

A network with width chain (q_0, ..., q_L) is a list of L weight matrices;
layer k has shape (q_k, q_{k-1} + 1). The extra column is the bias, applied
by augmenting the layer input with a trailing constant 1. Hidden layers
apply relu; the final layer is affine with scalar output (q_L == 1), so a
depth-1 network is a plain affine map of its input.

Gradients are computed by hand-written backpropagation. The relu
subgradient at exactly 0 is taken to be 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class NetworkParams:
    """Weights of one network: `layers[k]` has shape (q_{k+1}, q_k + 1)."""

    widths: tuple
    layers: list

    def copy(self):
        return NetworkParams(self.widths, [w.copy() for w in self.layers])


def _check_widths(widths):
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise ConfigError("a network needs at least one layer (two widths)")
    if widths[-1] != 1:
        raise ConfigError(f"output width must be 1, got {widths[-1]}")
    if any(w < 1 for w in widths):
        raise ConfigError(f"widths must be positive, got {widths}")
    return widths


def init_params(widths, rng):
    """Glorot-uniform weight blocks with zero bias columns.

    Each layer's non-bias block is drawn Uniform(-a, a) with
    a = sqrt(6 / (fan_in + fan_out)).
    """
    widths = _check_widths(widths)
    layers = []
    for k in range(1, len(widths)):
        fan_in, fan_out = widths[k - 1], widths[k]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        block = (2.0 * rng.random((fan_out, fan_in)) - 1.0) * bound
        layers.append(np.hstack([block, np.zeros((fan_out, 1))]))
    return NetworkParams(widths, layers)


def _augment(a):
    return np.hstack([a, np.ones((a.shape[0], 1))])


def _check_input(params, z_matrix):
    z_matrix = np.asarray(z_matrix, dtype=float)
    if z_matrix.ndim != 2 or z_matrix.shape[1] != params.widths[0]:
        raise DataError(
            f"network expects inputs of width {params.widths[0]},"
            f" got shape {z_matrix.shape}"
        )
    return z_matrix


def _forward_activations(params, z_matrix):
    """All post-activation layer outputs, input included, plus the output."""
    acts = [z_matrix]
    a = z_matrix
    last = len(params.layers) - 1
    for k, w in enumerate(params.layers):
        a = _augment(a) @ w.T
        if k < last:
            a = np.maximum(a, 0.0)
            acts.append(a)
    return acts, a[:, 0]


def forward_batch(params, z_matrix):
    """Network outputs for each row of z_matrix, as a length-n vector."""
    z_matrix = _check_input(params, z_matrix)
    _, out = _forward_activations(params, z_matrix)
    return out


def backward_batch(params, z_matrix, upstream):
    """Gradients of sum_i upstream[i] * output_i with respect to each layer.

    Returns a list of arrays shape-matched to params.layers. Rows whose
    hidden pre-activation is exactly 0 propagate no gradient through that
    unit (relu subgradient 0).
    """
    z_matrix = _check_input(params, z_matrix)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (z_matrix.shape[0],):
        raise DataError(
            f"upstream must have one weight per row: got {upstream.shape}"
            f" for {z_matrix.shape[0]} rows"
        )
    acts, _ = _forward_activations(params, z_matrix)
    grads = [None] * len(params.layers)
    delta = upstream.reshape(-1, 1)
    for k in range(len(params.layers) - 1, -1, -1):
        grads[k] = delta.T @ _augment(acts[k])
        if k > 0:
            # drop the bias column when propagating; mask dead relu units
            delta = (delta @ params.layers[k][:, :-1]) * (acts[k] > 0.0)
    return grads
