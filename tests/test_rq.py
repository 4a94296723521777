"""Tests for the exact linear quantile regression solver, dplqr.rq.

The seeds are this file's own, declared before its first run:
HIGHS_SEEDS for the comparison with scipy's HiGHS, OPTIMALITY_SEEDS for
the numpy-only optimality checks (HiGHS checks one design of each too),
ITERATION_SEED for the iteration cap.
"""

import numpy as np
import pytest

from dplqr import DgpSpec, generate, make_rng
from dplqr.errors import (ConfigError, DataError, SingularMatrixError,
                          TrainingError)
from dplqr.quantile_loss import check_loss
from dplqr.rq import rq

HIGHS_SEEDS = (2101, 2102, 2103, 2104)
OPTIMALITY_SEEDS = (2105, 2106)
ITERATION_SEED = 7508


def _design(case, n, seed):
    """[x, z, 1] and y of a scenario draw: the design an lqr fit solves."""
    data = generate(DgpSpec(case=case, n=n), make_rng(seed))
    return np.hstack([data.x, data.z, np.ones((n, 1))]), data.y


def _loss(X, y, beta, tau):
    return float(np.sum(check_loss(y - X @ beta, tau)))


def _highs(X, y, tau):
    """beta from the primal linear program: min tau 1'u + (1 - tau) 1'v
    subject to X beta + u - v = y, u, v >= 0."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n, k = X.shape
    eye = sparse.identity(n, format="csr")
    result = optimize.linprog(
        np.concatenate([np.zeros(k), np.full(n, tau), np.full(n, 1.0 - tau)]),
        A_eq=sparse.hstack([sparse.csr_matrix(X), eye, -eye]), b_eq=y,
        bounds=[(None, None)] * k + [(0.0, None)] * (2 * n), method="highs")
    assert result.status == 0, result.message
    return result.x[:k]


@pytest.mark.parametrize("seed, case, n, tau", [
    (HIGHS_SEEDS[0], 1, 400, 0.5),
    (HIGHS_SEEDS[0], 4, 1600, 0.2),
    (HIGHS_SEEDS[1], 3, 400, 0.8),
    (HIGHS_SEEDS[1], 6, 1600, 0.5),
    (HIGHS_SEEDS[2], 1, 400, 0.01),
    (HIGHS_SEEDS[2], 4, 400, 0.99),
    (HIGHS_SEEDS[3], 3, 1600, 0.01),
    (HIGHS_SEEDS[3], 6, 400, 0.99),
    (OPTIMALITY_SEEDS[0], 1, 500, 0.3),
    (OPTIMALITY_SEEDS[1], 4, 500, 0.3),
])
def test_matches_highs(seed, case, n, tau):
    X, y = _design(case, n, seed)
    want = _highs(X, y, tau)
    beta, _ = rq(X, y, tau)
    assert np.max(np.abs(beta - want)) <= 1e-8
    best = _loss(X, y, want, tau)
    assert abs(_loss(X, y, beta, tau) - best) <= 1e-12 * best


@pytest.mark.parametrize("tau", [0.01, 0.3, 0.5, 0.99])
@pytest.mark.parametrize("seed, case", [(OPTIMALITY_SEEDS[0], 1),
                                        (OPTIMALITY_SEEDS[1], 4)])
def test_optimality_conditions(seed, case, tau):
    X, y = _design(case, 500, seed)
    beta, a = rq(X, y, tau)
    n, k = X.shape
    # the dual solution is feasible
    assert a.shape == (n,) and np.all((0.0 <= a) & (a <= 1.0))
    target = (1.0 - tau) * X.sum(axis=0)
    np.testing.assert_allclose(X.T @ a, target, rtol=0,
                               atol=1e-9 * np.abs(X).sum(axis=0).max())
    # complementary slackness: a is 1 above the fit and 0 below it, and
    # the rows in between are the k the fit interpolates
    r = y - X @ beta
    far = 1e-6 * np.mean(np.abs(y))
    assert np.all(a[r > far] > 1.0 - 1e-6)
    assert np.all(a[r < -far] < 1e-6)
    assert np.sum(np.abs(r) <= far) == k
    # no nearby beta has a lower check loss
    best = _loss(X, y, beta, tau)
    step = np.random.default_rng(seed).normal(size=(20, k))
    for size in (1e-2, 1e-5):
        for d in np.vstack([np.eye(k), -np.eye(k), step]):
            assert _loss(X, y, beta + size * d, tau) >= best * (1 - 1e-13)


def test_intercept_only_is_the_sample_quantile():
    y = np.random.default_rng(OPTIMALITY_SEEDS[0]).standard_normal(101)
    for tau in (0.25, 0.5, 0.75):
        beta, _ = rq(np.ones((101, 1)), y, tau)
        assert beta[0] == pytest.approx(np.sort(y)[int(101 * tau)],
                                        abs=1e-10)


def test_exact_fit_on_linear_data():
    X, _ = _design(1, 60, OPTIMALITY_SEEDS[1])
    truth = np.linspace(-1.0, 1.0, X.shape[1])
    beta, _ = rq(X, X @ truth, 0.3)
    np.testing.assert_allclose(beta, truth, rtol=0, atol=1e-9)
    beta, _ = rq(X, np.zeros(60), 0.3)
    assert np.all(beta == 0.0)


def test_duplicated_column_is_singular():
    X, y = _design(1, 200, OPTIMALITY_SEEDS[0])
    X = np.hstack([X, X[:, :1]])
    with pytest.raises(SingularMatrixError, match="rank 13 with 14"):
        rq(X, y, 0.5)


def test_fewer_rows_than_columns():
    X, y = _design(1, 200, OPTIMALITY_SEEDS[0])
    with pytest.raises(DataError, match="need at least 13 rows"):
        rq(X[:12], y[:12], 0.5)


def test_bad_arguments():
    X, y = _design(1, 50, OPTIMALITY_SEEDS[0])
    with pytest.raises(DataError, match="shape"):
        rq(X, y[:-1], 0.5)
    with pytest.raises(DataError, match="shape"):
        rq(X[:, 0], y, 0.5)
    with pytest.raises(ConfigError, match="tau"):
        rq(X, y, 1.0)


def test_iteration_cap(monkeypatch):
    X, y = _design(1, 50, ITERATION_SEED)
    monkeypatch.setattr("dplqr.rq.MAX_ITERATIONS", 1)
    with pytest.raises(TrainingError, match=(
            "^linear quantile regression did not converge in 1"
            " iterations$")):
        rq(X, y, 0.5)
