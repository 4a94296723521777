"""dplqr.normal returns the bits of scipy.special's ndtr and ndtri.

scipy is the reference here only; the package itself never imports it.
Each comparison covers at least 10**6 seeded values, weighted toward the
points where the Cephes routines switch branches.
"""

import math

import numpy as np
import pytest

special = pytest.importorskip("scipy.special")  # the reference

from dplqr import normal

NDTRI_SEED = 4711
NDTR_SEED = 4712

SQRTH = 7.07106781186547524401E-1
EXP_M2 = 0.13533528323661269189
FLOOR = 2.0 ** -53  # the smallest uniform rng.std_normal transforms
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _around(cut, rng, count=20_000, ulps=200):
    """`cut`, its neighbours within `ulps` steps on each side, and
    `count` values within a relative 1e-9 of it."""
    steps = [cut]
    for direction in (-np.inf, np.inf):
        value = cut
        for _ in range(ulps):
            value = np.nextafter(value, direction)
            steps.append(value)
    near = cut * (1.0 + rng.uniform(-1e-9, 1e-9, count))
    return np.concatenate([steps, near])


def _assert_same_bits(ours, ref, values):
    assert ours.shape == ref.shape == values.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(ours), nan)
    bad = ours.view(np.int64) != ref.view(np.int64)
    bad &= ~nan
    assert not bad.any(), (
        f"{int(bad.sum())} of {values.size} differ, first at"
        f" {values[bad][:3]!r}: {ours[bad][:3]!r} against {ref[bad][:3]!r}")


def _ndtri_values():
    rng = np.random.default_rng(NDTRI_SEED)
    tiny = np.exp(rng.uniform(math.log(FLOOR), math.log(0.1), 100_000))
    parts = [
        rng.random(650_000),
        np.maximum(rng.random(50_000), FLOOR),
        tiny, 1.0 - tiny,
        # exp(-32), where the tail switches polynomials
        _around(math.exp(-32.0), rng),
        np.array([FLOOR, 1.0 - FLOOR, 0.5, 1.0, -1.0, 2.0, 5e-324, 1e-300]),
        SPECIALS,
    ]
    for cut in (EXP_M2, 1.0 - EXP_M2):
        parts.append(_around(cut, rng, count=50_000))
    values = np.concatenate(parts)
    assert values.size >= 10 ** 6
    return values


def _ndtr_values():
    rng = np.random.default_rng(NDTR_SEED)
    parts = [
        rng.standard_normal(340_000) * rng.integers(1, 11, 340_000),
        rng.uniform(-40.0, 40.0, 300_000),
        np.array([38.0, -38.0, 37.5, -37.5, 40.0, -40.0, 1e-300, -1e-300]),
        SPECIALS,
    ]
    # the cuts on x = a * SQRTH: |x| = SQRTH, 1 and 8
    for cut_x in (SQRTH, 1.0, 8.0):
        for sign in (1.0, -1.0):
            parts.append(_around(sign * cut_x / SQRTH, rng, count=60_000))
    values = np.concatenate(parts)
    assert values.size >= 10 ** 6
    return values


def test_ndtri_matches_scipy_bit_for_bit():
    values = _ndtri_values()
    _assert_same_bits(normal.ndtri(values), special.ndtri(values), values)


def test_ndtr_matches_scipy_bit_for_bit():
    values = _ndtr_values()
    _assert_same_bits(normal.ndtr(values), special.ndtr(values), values)


@pytest.mark.parametrize("func", ["ndtr", "ndtri"])
def test_shape_and_scalars_follow_scipy(func):
    ours, ref = getattr(normal, func), getattr(special, func)
    grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    assert ours(grid).shape == (3, 4)
    _assert_same_bits(ours(grid), ref(grid), grid)
    for value in (0.975, 0.5, 0.025):
        got = ours(value)
        assert isinstance(got, np.float64)
        assert got.view(np.int64) == ref(value).view(np.int64)
    assert ours(np.array([])).shape == (0,)


def test_ends_of_the_domain():
    assert normal.ndtri(0.0) == -np.inf and normal.ndtri(1.0) == np.inf
    assert np.isnan(normal.ndtri(-0.5)) and np.isnan(normal.ndtri(1.5))
    assert normal.ndtr(-np.inf) == 0.0 and normal.ndtr(np.inf) == 1.0
    assert np.isnan(normal.ndtr(np.nan)) and np.isnan(normal.ndtri(np.nan))
