"""Tests for the pinball (check) loss."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqr.errors import ConfigError, DataError
from dplqr.quantile_loss import (check_loss, check_score, mean_check_loss,
                                 validate_tau)


def test_check_loss_hand_values():
    assert check_loss(1.0, 0.5) == 0.5
    assert_allclose(check_loss(-1.0, 0.2), 0.8)
    assert check_loss(0.0, 0.3) == 0.0
    assert_allclose(check_loss(2.0, 0.9), 1.8)


def test_check_score_is_the_slope_of_the_loss():
    # psi_tau(t) = tau - 1{t < 0}: tau at 0 and above, tau - 1 below, and
    # rho_tau(t) = t * psi_tau(t) exactly
    t = np.array([-2.0, -1e-300, 0.0, 3.0])
    assert check_score(t, 0.3).tolist() == [0.3 - 1.0, 0.3 - 1.0, 0.3, 0.3]
    assert check_loss(t, 0.3).tolist() == (t * check_score(t, 0.3)).tolist()


def test_check_loss_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = rng.normal() * 10
        tau = rng.uniform(0.01, 0.99)
        assert check_loss(t, tau) >= 0.0


def test_check_loss_reflection_identity():
    # rho_tau(t) equals rho_{1-tau}(-t)
    rng = np.random.default_rng(1)
    for _ in range(200):
        t = rng.normal() * 5
        tau = rng.uniform(0.05, 0.95)
        assert_allclose(check_loss(t, tau), check_loss(-t, 1.0 - tau),
                        rtol=1e-12)


def test_mean_check_loss_hand_values():
    assert mean_check_loss(np.array([1.0, -1.0]), 0.5) == 0.5
    assert_allclose(mean_check_loss(np.array([2.0, -4.0]), 0.5), 1.5)


def test_mean_check_loss_empty_rejected():
    with pytest.raises(DataError):
        mean_check_loss(np.array([]), 0.5)


def test_validate_tau():
    validate_tau(0.5)
    validate_tau(0.01)
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ConfigError):
            validate_tau(bad)


@pytest.mark.parametrize("bad", ["abc", None], ids=["text", "none"])
def test_validate_tau_needs_a_number(bad):
    with pytest.raises(ConfigError):
        validate_tau(bad)
