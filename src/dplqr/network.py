"""Feed-forward ReLU networks with explicit reverse-mode gradients.

A network with width chain (q_0, ..., q_L) is a list of L weight matrices;
layer k has shape (q_k, q_{k-1} + 1). The extra column is the bias, applied
by augmenting the layer input with a trailing constant 1. Hidden layers
apply relu; the final layer is affine with scalar output (q_L == 1), so a
depth-1 network is a plain affine map of its input. The input width q_0
may be 0: the (0, 1) network is its bias alone, a learned constant.

Callers pass raw z rows, shape (n, q_0); the bias column exists only in
this module. Layer inputs live in activation buffers, one per layer: the
input of layer k is an (n, q_{k-1} + 1) array whose last column is 1, so
each layer is one matmul. `activation_buffers` allocates them with their
last column already 1; a forward pass copies z into the first one and
writes each relu activation into the others in place. A training loop
allocates the buffers once per fit and hands them to `forward_batch` and
`backward_batch`, so one step runs the forward pass once and backprop
reads the activations that pass left behind. A `forward_batch` call
without buffers (prediction, scoring) allocates its own, sized to one
row block (`PASS_ROWS`), so its memory does not grow with the rows.

A stack of K networks on one width chain has a leading member axis: each
layer is (K, q_k, q_{k-1} + 1), the inputs are (K, n, q_0) and the
buffers (K, rows, q_k + 1). Every product is a stacked `np.matmul`, which
runs the same BLAS call per member as the one network alone does, so a
member's outputs and gradients are bit for bit those of that network
trained on its own.

Gradients are computed by hand-written backpropagation. The relu
subgradient at exactly 0 is taken to be 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Row block of a forward pass that is given no buffers. Blocks stay this
# large because BLAS may round a block of a few rows differently from
# the whole matrix; blocks of 1,000 rows or more give the single pass's
# bits on OpenBLAS.
PASS_ROWS = 8192


@dataclass
class NetworkParams:
    """Weights of one network: `layers[k]` has shape (q_{k+1}, q_k + 1)."""

    widths: tuple
    layers: list


def _check_widths(widths):
    if not all(type(w) is int or isinstance(w, np.integer) for w in widths):
        raise ConfigError(f"every width must be an integer, got {widths}")
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise ConfigError("a network needs at least one layer (two widths)")
    if widths[-1] != 1:
        raise ConfigError(f"output width must be 1, got {widths[-1]}")
    if widths[0] < 0 or any(w < 1 for w in widths[1:]):
        raise ConfigError(f"the input width must be >= 0 and every other"
                          f" width positive, got {widths}")
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


def activation_buffers(widths, rows, members=None):
    """One (rows, q_k + 1) input buffer per layer, last column set to 1;
    (members, rows, q_k + 1) for a stack of that many networks.

    A pass over n <= rows input rows copies z into the first n rows and
    q_0 columns of buffer 0 and writes the relu activations of hidden
    layer k into those of buffer k.
    """
    lead = () if members is None else (members,)
    buffers = []
    for width in widths[:-1]:
        buffer = np.empty(lead + (rows, width + 1))
        buffer[..., -1] = 1.0
        buffers.append(buffer)
    return buffers


def _check_input(params, z_matrix):
    """z as a float array: (n, q_0) rows, or (K, n, q_0) for a stack."""
    z_matrix = np.asarray(z_matrix, dtype=float)
    width = params.widths[0]
    lead = params.layers[0].shape[:-2]
    if (z_matrix.ndim != len(lead) + 2 or z_matrix.shape[:-2] != lead
            or z_matrix.shape[-1] != width):
        raise DataError(
            f"network expects inputs of width {width}"
            + (f" for {lead[0]} members" if lead else "")
            + f", got shape {z_matrix.shape}")
    return z_matrix


def _check_acts(acts, z_matrix):
    rows = z_matrix.shape[-2]
    if acts[0].shape[:-2] != z_matrix.shape[:-2]:
        raise DataError(f"activation buffers of shape {acts[0].shape} do not"
                        f" match inputs of shape {z_matrix.shape}")
    if acts[0].shape[-2] < rows:
        raise DataError(f"activation buffers hold {acts[0].shape[-2]} rows,"
                        f" the input has {rows}")


def _forward(layers, z_matrix, acts):
    """Output on rows z_matrix; fills every layer-input buffer in `acts`."""
    n = z_matrix.shape[-2]
    a = acts[0][..., :n, :]
    a[..., :-1] = z_matrix
    for w, buffer in zip(layers, acts[1:]):
        np.matmul(a, w.swapaxes(-1, -2), out=buffer[..., :n, :-1])
        a = buffer[..., :n, :]
        # relu over whole rows, which are contiguous; it leaves the
        # bias column of ones as it is
        np.maximum(a, 0.0, out=a)
    return (a @ layers[-1].swapaxes(-1, -2))[..., 0]


def forward_batch(params, z_matrix, acts=None):
    """Network outputs for each row of z_matrix, as a length-n vector;
    (K, n) for a stack, whose z_matrix is (K, n, q_0).

    With `acts` (from activation_buffers, at least n rows), the layer
    inputs stay in acts for a backward_batch call on the same rows.
    Without them, the rows run in blocks of PASS_ROWS rows, the last
    block taking the remainder, through one buffer set of fewer than
    2 * PASS_ROWS rows: fewer than 2 * PASS_ROWS rows are one block.
    Such blocks give the bits of one pass over all rows.
    """
    z_matrix = _check_input(params, z_matrix)
    if acts is not None:
        _check_acts(acts, z_matrix)
        return _forward(params.layers, z_matrix, acts)
    n, lead = z_matrix.shape[-2], z_matrix.shape[:-2]
    edges = [0, *range(PASS_ROWS, n - PASS_ROWS + 1, PASS_ROWS), n]
    acts = activation_buffers(params.widths, n - edges[-2], *lead)
    out = np.empty(z_matrix.shape[:-1])
    for start, stop in zip(edges, edges[1:]):
        out[..., start:stop] = _forward(
            params.layers, z_matrix[..., start:stop, :], acts)
    return out


def backward_batch(params, z_matrix, upstream, acts=None, grads=None):
    """Gradients of sum_i upstream[i] * output_i with respect to each layer.

    Returns a list of arrays shape-matched to params.layers; for a stack,
    upstream is (K, n) and member k's gradients are row k of each array.
    Rows whose hidden pre-activation is exactly 0 propagate no gradient
    through that unit (relu subgradient 0). Without `acts` the forward
    pass is run here; with them, acts must hold the buffers of a
    forward_batch call on the same params and z_matrix, whose layer
    inputs are read instead of recomputed. With `grads`, arrays shaped
    like params.layers, the gradients are written into them.
    """
    z_matrix = _check_input(params, z_matrix)
    n = z_matrix.shape[-2]
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != z_matrix.shape[:-1]:
        raise DataError(
            f"upstream must have one weight per row: got {upstream.shape}"
            f" for inputs of shape {z_matrix.shape}")
    if acts is None:
        acts = activation_buffers(params.widths, n, *z_matrix.shape[:-2])
        _forward(params.layers, z_matrix, acts)
    else:
        _check_acts(acts, z_matrix)
    inputs = [buffer[..., :n, :] for buffer in acts]
    if grads is None:
        grads = [None] * len(params.layers)
    delta = upstream[..., None]
    for k in range(len(params.layers) - 1, -1, -1):
        grads[k] = np.matmul(delta.swapaxes(-1, -2), inputs[k], out=grads[k])
        if k > 0:
            # drop the bias column when propagating; mask dead relu units
            delta = ((delta @ params.layers[k][..., :-1])
                     * (inputs[k] > 0.0)[..., :-1])
    return grads
