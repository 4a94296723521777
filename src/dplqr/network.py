"""Feed-forward ReLU networks with explicit reverse-mode gradients.

A network with width chain (q_0, ..., q_L) is a list of L weight matrices;
layer k has shape (q_k, q_{k-1} + 1). The extra column is the bias, applied
by augmenting the layer input with a trailing constant 1. Hidden layers
apply relu; the final layer is affine with scalar output (q_L == 1), so a
depth-1 network is a plain affine map of its input.

Layer inputs live in activation buffers. The input of layer k is an
(n, q_{k-1} + 1) array whose last column is 1, so each layer is one
matmul. `augment` builds the first one from z; `hidden_buffers`
preallocates the rest with their last column already 1, and a forward
pass writes each relu activation into the other columns in place. A
training loop augments its inputs and allocates the buffers once per
fit, then hands both to `forward_batch` and `backward_batch`, so one
step runs the forward pass once and copies no layer input.

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


def augment(z_matrix):
    """z_matrix with a trailing column of ones: the first layer's input."""
    out = np.empty((z_matrix.shape[0], z_matrix.shape[1] + 1))
    out[:, :-1] = z_matrix
    out[:, -1] = 1.0
    return out


def hidden_buffers(widths, rows):
    """One (rows, q_k + 1) activation buffer per hidden layer, last column 1.

    A pass over n <= rows input rows writes the relu activations of
    hidden layer k into the first n rows and q_k columns of buffer k-1.
    """
    buffers = []
    for width in widths[1:-1]:
        buffer = np.empty((rows, width + 1))
        buffer[:, -1] = 1.0
        buffers.append(buffer)
    return buffers


def _check_input(params, z_matrix, augmented=False):
    z_matrix = np.asarray(z_matrix, dtype=float)
    width = params.widths[0] + augmented
    if z_matrix.ndim != 2 or z_matrix.shape[1] != width:
        raise DataError(
            f"network expects {'augmented ' * augmented}inputs of width"
            f" {width}, got shape {z_matrix.shape}")
    return z_matrix


def _check_acts(acts, rows):
    if acts and acts[0].shape[0] < rows:
        raise DataError(f"activation buffers hold {acts[0].shape[0]} rows,"
                        f" the input has {rows}")


def _forward(layers, z_aug, acts):
    """Output on augmented rows z_aug; fills the hidden buffers `acts`."""
    n = z_aug.shape[0]
    a = z_aug
    for w, buffer in zip(layers, acts):
        np.matmul(a, w.T, out=buffer[:n, :-1])
        a = buffer[:n]
        # relu over whole rows, which are contiguous; it leaves the
        # bias column of ones as it is
        np.maximum(a, 0.0, out=a)
    return (a @ layers[-1].T)[:, 0]


def forward_batch(params, z_matrix, acts=None):
    """Network outputs for each row of z_matrix, as a length-n vector.

    With `acts` (from hidden_buffers, at least n rows), z_matrix must be
    bias-augmented (see `augment`), and the hidden activations stay in
    acts for a backward_batch call on the same rows.
    """
    if acts is None:
        z_aug = augment(_check_input(params, z_matrix))
        acts = hidden_buffers(params.widths, z_aug.shape[0])
    else:
        z_aug = _check_input(params, z_matrix, augmented=True)
        _check_acts(acts, z_aug.shape[0])
    return _forward(params.layers, z_aug, acts)


def backward_batch(params, z_matrix, upstream, acts=None):
    """Gradients of sum_i upstream[i] * output_i with respect to each layer.

    Returns a list of arrays shape-matched to params.layers. Rows whose
    hidden pre-activation is exactly 0 propagate no gradient through that
    unit (relu subgradient 0). Without `acts` the forward pass is run
    here; with them, z_matrix and acts must be the augmented input and
    buffers of a forward_batch call on the same params, whose hidden
    activations are read instead of recomputed.
    """
    z_matrix = _check_input(params, z_matrix, augmented=acts is not None)
    n = z_matrix.shape[0]
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (n,):
        raise DataError(
            f"upstream must have one weight per row: got {upstream.shape}"
            f" for {n} rows")
    if acts is None:
        z_matrix = augment(z_matrix)
        acts = hidden_buffers(params.widths, n)
        _forward(params.layers, z_matrix, acts)
    else:
        _check_acts(acts, n)
    inputs = [z_matrix] + [buffer[:n] for buffer in acts]
    grads = [None] * len(params.layers)
    delta = upstream.reshape(-1, 1)
    for k in range(len(params.layers) - 1, -1, -1):
        grads[k] = delta.T @ inputs[k]
        if k > 0:
            # drop the bias column when propagating; mask dead relu units
            delta = ((delta @ params.layers[k][:, :-1])
                     * (inputs[k] > 0.0)[:, :-1])
    return grads
