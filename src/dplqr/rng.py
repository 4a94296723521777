"""Seeded, splittable random number generation.

All randomness in the package flows through numpy Generator objects backed
by the PCG64 bit generator (period 2**128). Reproducibility contract:
every run is a pure function of its integer master seed.

Independent substreams come from seed sequences: replicate ``i`` of master
seed ``s`` uses ``SeedSequence(s, spawn_key=(i,))``, which produces streams
that do not collide in practice and are stable across platforms.

Normal variates are produced by inverse-CDF transform of uniforms with
the package's own Cephes ``ndtri`` (`normal.ndtri`, bit-identical to
scipy's), so each draw consumes a fixed number of uniforms and never
branches on a rejection step. Shuffles call ``Generator.permutation``
directly. `_check_int` is the package's one rule for integer settings.
"""

import numpy as np

from .errors import ConfigError
from .normal import ndtri

# smallest uniform fed to the inverse normal CDF; rng.random() already
# excludes 0 but clamping keeps the transform's domain explicit
_MIN_UNIFORM = 2.0 ** -53


def _check_int(value, what):
    """An integer setting is a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def _check_seed(seed, what="seed"):
    """A seed or substream index is a nonnegative integer (`_check_int`)."""
    _check_int(seed, what)
    if seed < 0:
        raise ConfigError(f"{what} must be nonnegative, got {seed}")


def make_rng(seed):
    """Fresh generator for a nonnegative integer master seed."""
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def child_rng(seed, index):
    """Independent substream `index` of master seed `seed`."""
    _check_seed(seed)
    _check_seed(index, "substream index")
    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def split(rng, n):
    """Return n fresh child generators, advancing `rng`'s spawn counter."""
    if n < 1:
        raise ConfigError(f"cannot split an rng into {n} children")
    return list(rng.spawn(n))


def std_normal(rng, size=None):
    """Standard normal draws via the inverse CDF; scalar when size is None."""
    u = np.maximum(rng.random(size), _MIN_UNIFORM)
    out = ndtri(u)
    return float(out) if size is None else out
