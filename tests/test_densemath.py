"""Tests for the small linear algebra and statistics helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dplqr.densemath import sample_iqr, sample_sd, sym_inverse
from dplqr.errors import DataError, SingularMatrixError


class TestSymInverse:
    def test_identity(self):
        assert_allclose(sym_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert_allclose(sym_inverse(np.diag([2.0, 4.0])),
                        np.diag([0.5, 0.25]))

    def test_two_by_two_closed_form(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        want = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert_allclose(sym_inverse(m), want, atol=1e-12)

    def test_random_spd_inverse_property(self):
        # a.T @ a + eps*I is SPD; check m @ inv(m) is the identity
        rng = np.random.default_rng(7)
        for p in range(1, 7):
            a = rng.normal(size=(p + 2, p))
            m = a.T @ a + 0.1 * np.eye(p)
            err = np.max(np.abs(m @ sym_inverse(m) - np.eye(p)))
            assert err < 1e-8, f"p={p}: inverse error {err}"

    def test_result_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 4))
        inv = sym_inverse(a.T @ a + 0.5 * np.eye(4))
        assert_array_equal(inv, inv.T)

    def test_not_positive_definite(self):
        with pytest.raises(SingularMatrixError):
            sym_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_not_symmetric(self):
        with pytest.raises(DataError):
            sym_inverse(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestSampleStats:
    def test_sd_constant(self):
        assert sample_sd(np.array([1.0, 1.0, 1.0, 1.0])) == 0.0

    def test_sd_two_points(self):
        assert_allclose(sample_sd(np.array([0.0, 2.0])), np.sqrt(2.0))

    def test_iqr_five_points(self):
        assert sample_iqr(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 2.0

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            sample_sd(np.array([1.0]))
        with pytest.raises(DataError):
            sample_iqr(np.array([1.0]))
