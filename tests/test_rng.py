"""Tests for seeded random number generation and substreams."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from dplqr import rng as rngmod
from dplqr.errors import ConfigError


def test_same_seed_same_stream():
    a = rngmod.make_rng(123)
    b = rngmod.make_rng(123)
    assert_array_equal(a.random(50), b.random(50))


def test_different_seeds_differ():
    a = rngmod.make_rng(1).random(20)
    b = rngmod.make_rng(2).random(20)
    assert not np.array_equal(a, b)


def test_seed_validation():
    for bad in (-1, 1.5, "7", None, True):
        with pytest.raises(ConfigError):
            rngmod.make_rng(bad)


def test_uniform_mean_law_of_large_numbers():
    u = rngmod.make_rng(42).random(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_std_normal_moments():
    x = rngmod.std_normal(rngmod.make_rng(42), 100_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    # symmetry of the inverse-CDF construction
    assert abs(np.mean(x < 0) - 0.5) < 0.005


def test_std_normal_scalar():
    x = rngmod.std_normal(rngmod.make_rng(0))
    assert isinstance(x, float)


def test_child_streams_independent_and_reproducible():
    a = rngmod.std_normal(rngmod.child_rng(9, 0), 1000)
    b = rngmod.std_normal(rngmod.child_rng(9, 1), 1000)
    a_again = rngmod.std_normal(rngmod.child_rng(9, 0), 1000)
    assert_array_equal(a, a_again)
    assert not np.array_equal(a, b)
    # crude independence check: near-zero empirical correlation
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_child_streams_do_not_depend_on_parent_state():
    parent = rngmod.make_rng(5)
    parent.random(17)  # burn some draws
    # child_rng keys off the seed integers only
    assert_array_equal(rngmod.child_rng(5, 3).random(10),
                       rngmod.child_rng(5, 3).random(10))


def test_split_children_distinct():
    parent = rngmod.make_rng(11)
    kids = rngmod.split(parent, 3)
    draws = [k.random(25) for k in kids]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.array_equal(draws[i], draws[j])


def test_split_reproducible_from_same_parent_seed():
    d1 = [k.random(8) for k in rngmod.split(rngmod.make_rng(2), 4)]
    d2 = [k.random(8) for k in rngmod.split(rngmod.make_rng(2), 4)]
    for a, b in zip(d1, d2):
        assert_array_equal(a, b)


def test_split_rejects_nonpositive():
    with pytest.raises(ConfigError):
        rngmod.split(rngmod.make_rng(0), 0)
