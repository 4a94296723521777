"""Tests for residual density estimation, projections, and Wald intervals."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dplqr import inference, optimizer
from dplqr.errors import (ConfigError, DataError, SingularMatrixError,
                          TrainingError)
from dplqr.inference import (CovarianceEstimate, confidence_intervals,
                             covariance, fit_projection, kde_at_zero,
                             sym_inverse, validate_level)
from dplqr.model import Dataset, fit, fit_lqr, predict_batch
from dplqr.network import forward_batch
from dplqr.optimizer import TrainConfig
from dplqr.rng import make_rng, split

Z_975 = 1.959963984540054
SYM_INVERSE_SEED = 3030


class TestKdeAtZero:
    def test_two_point_closed_form(self):
        # residuals split evenly between -1 and +1: the estimate at 0 is
        # phi(1/h) / h with h from Silverman's rule (iqr = 2, sd > iqr/1.34
        # so the bandwidth uses iqr/1.34)
        res = np.array([-1.0] * 5 + [1.0] * 5)
        sd = np.std(res, ddof=1)
        h = 0.9 * min(sd, 2.0 / 1.34) * 10 ** (-0.2)
        want = np.exp(-0.5 / h ** 2) / (h * np.sqrt(2 * np.pi))
        got = kde_at_zero(res)
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(got, 0.1650950816335347, rtol=1e-12)

    def test_standard_normal_density_recovered(self):
        # true value 1/sqrt(2*pi) = 0.3989
        rng = np.random.default_rng(0)
        est = kde_at_zero(rng.standard_normal(20_000))
        assert abs(est - 0.3989) < 0.02

    def test_scale_family(self):
        # density of c*eps at 0 is f(0)/c
        rng = np.random.default_rng(1)
        base = rng.standard_normal(20_000)
        f1 = kde_at_zero(base)
        f2 = kde_at_zero(2.0 * base)
        assert abs(f2 - f1 / 2.0) < 0.01

    def test_zero_iqr_falls_back_to_sd(self):
        # most mass at one point makes the iqr 0; the sd keeps the
        # bandwidth positive and the estimate finite
        res = np.concatenate([np.zeros(30), np.array([-3.0, 3.0])])
        est = kde_at_zero(res)
        assert np.isfinite(est) and est > 0

    def test_identical_residuals_rejected(self):
        with pytest.raises(DataError):
            kde_at_zero(np.full(20, 1.7))

    def test_too_few_rejected(self):
        with pytest.raises(DataError):
            kde_at_zero(np.arange(9, dtype=float))

    def test_nonfinite_rejected(self):
        res = np.ones(12)
        res[3] = np.nan
        with pytest.raises(DataError):
            kde_at_zero(res)


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

    def test_non_square_rejected(self):
        with pytest.raises(DataError, match=(
                r"^sym_inverse needs a square matrix, got \(2, 3\)$")):
            sym_inverse(np.ones((2, 3)))

    def test_random_spd_inverse_property(self):
        # a.T @ a + eps*I is SPD; check m @ inv(m) is the identity
        rng = np.random.default_rng(7)
        for p in range(1, 7):
            a = rng.normal(size=(p + 2, p))
            m = a.T @ a + 0.1 * np.eye(p)
            err = np.max(np.abs(m @ sym_inverse(m) - np.eye(p)))
            assert err < 1e-8, f"p={p}: inverse error {err}"

    def test_matches_a_cholesky_solve(self):
        # the inverse scipy's cho_solve gives, up to round-off
        cho_solve = pytest.importorskip("scipy.linalg").cho_solve

        rng = np.random.default_rng(SYM_INVERSE_SEED)
        for p in range(1, 6):
            for _ in range(40):
                a = rng.normal(size=(p + 3, p))
                m = a.T @ a + 0.1 * np.eye(p)
                want = cho_solve((np.linalg.cholesky(m), True), np.eye(p))
                err = np.max(np.abs(sym_inverse(m) - want))
                assert err <= 1e-14 * np.max(np.abs(want)), f"p={p}"

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


def _proj_config(**kw):
    base = dict(depth=2, width=8, epochs=300, minibatch=64,
                early_stop_patience=60, learning_rate=0.01)
    base.update(kw)
    return TrainConfig(**base)


class TestFitProjection:
    def test_independent_covariate_projects_to_mean(self):
        # X independent of Z: E(X | Z) is the constant E(X), so the
        # fitted projection should be flat near that mean
        rng = np.random.default_rng(2)
        n = 600
        x = 1.0 + rng.standard_normal((n, 1))
        z = rng.uniform(0, 2, size=(n, 2))
        data = Dataset(y=np.zeros(n), x=x, z=z)
        proj = fit_projection(data, 0, _proj_config(), make_rng(3))
        preds = forward_batch(proj, z)
        assert abs(float(np.mean(preds)) - 1.0) < 0.1

    def test_noiseless_linear_relation_learned(self):
        # X = z1 + z2 exactly: squared-error training should drive the
        # mean squared prediction error below 1e-2
        rng = np.random.default_rng(3)
        n = 600
        z = rng.uniform(0, 2, size=(n, 2))
        x = (z[:, 0] + z[:, 1]).reshape(-1, 1)
        data = Dataset(y=np.zeros(n), x=x, z=z)
        proj = fit_projection(data, 0, _proj_config(epochs=500), make_rng(4))
        mse = float(np.mean((forward_batch(proj, z) - x[:, 0]) ** 2))
        assert mse < 1e-2

    def test_index_out_of_range(self):
        data = Dataset(y=np.zeros(50), x=np.ones((50, 1)),
                       z=np.ones((50, 2)))
        with pytest.raises(DataError):
            fit_projection(data, 1, _proj_config(), make_rng(0))

    @pytest.mark.parametrize("n", [2, 4])
    def test_too_few_rows_is_the_fit_rule(self, n):
        data = Dataset(y=np.zeros(n), x=np.arange(n, dtype=float),
                       z=np.ones((n, 2)))
        with pytest.raises(DataError,
                           match=rf"^need at least 5 rows to fit, got {n}$"):
            fit_projection(data, 0, _proj_config(minibatch=2), make_rng(0))

    def test_needs_z_columns(self):
        data = Dataset(y=np.zeros(50), x=np.ones((50, 2)), z=None)
        with pytest.raises(DataError):
            fit_projection(data, 0, _proj_config(), make_rng(0))


class TestConfidenceIntervals:
    def test_scalar_hand_value(self):
        # theta = 0, Sigma = I, n = 100, level 0.95:
        # half width = 1.96 * sqrt(1/100) = 0.196
        ci = confidence_intervals(np.array([0.0]), np.eye(1), 100, 0.95)
        assert_allclose(ci, [[-Z_975 / 10.0, Z_975 / 10.0]], rtol=1e-12)
        assert_allclose(ci, [[-0.196, 0.196]], atol=1e-3)

    def test_width_scales_inverse_root_n(self):
        a = confidence_intervals(np.zeros(1), np.eye(1), 100, 0.95)
        b = confidence_intervals(np.zeros(1), np.eye(1), 400, 0.95)
        assert_allclose((a[0, 1] - a[0, 0]) / (b[0, 1] - b[0, 0]), 2.0,
                        rtol=1e-12)

    def test_higher_level_wider(self):
        lo = confidence_intervals(np.zeros(1), np.eye(1), 50, 0.90)
        hi = confidence_intervals(np.zeros(1), np.eye(1), 50, 0.99)
        assert hi[0, 1] - hi[0, 0] > lo[0, 1] - lo[0, 0]

    def test_centering(self):
        theta = np.array([2.0, -1.0])
        ci = confidence_intervals(theta, np.diag([4.0, 1.0]), 100, 0.95)
        assert_allclose(ci.mean(axis=1), theta, rtol=1e-12)
        # wider interval for the larger variance
        assert ci[0, 1] - ci[0, 0] > ci[1, 1] - ci[1, 0]

    def test_level_validated(self):
        with pytest.raises(ConfigError):
            confidence_intervals(np.zeros(1), np.eye(1), 10, 1.0)
        with pytest.raises(ConfigError):
            confidence_intervals(np.zeros(1), np.eye(1), 10, 0.0)

    def test_text_level_is_config_error(self):
        with pytest.raises(ConfigError):
            validate_level("x")

    def test_negative_variance_rejected(self):
        with pytest.raises(DataError):
            confidence_intervals(np.zeros(1), -np.eye(1), 10, 0.95)


class TestCovariance:
    def _fitted(self, n=400, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        z = rng.uniform(0, 2, size=(n, 2))
        y = x[:, 0] - x[:, 1] + z.sum(axis=1) + 0.5 * rng.standard_normal(n)
        data = Dataset(y=y, x=x, z=z)
        cfg = TrainConfig(depth=2, width=8, epochs=200, minibatch=64,
                          early_stop_patience=50, learning_rate=0.01)
        return fit(data, 0.5, cfg, make_rng(6)), data, cfg

    @pytest.mark.parametrize("p, q", [(0, 2), (2, 0)])
    def test_needs_both_blocks(self, p, q):
        # checked before the residuals, so the fit's layout is not read
        rng = np.random.default_rng(7507)
        data = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, p)),
                       z=rng.normal(size=(20, q)))
        fitted = fit_lqr(data, 0.5)
        with pytest.raises(DataError,
                           match="^covariance needs p >= 1 and q >= 1$"):
            covariance(fitted, data, TrainConfig(), make_rng(7507))

    def test_pipeline_shapes_and_symmetry(self):
        fitted, data, cfg = self._fitted()
        est = covariance(fitted, data, cfg, make_rng(7))
        assert est.f0_hat > 0
        assert est.omega_hat.shape == (2, 2)
        assert est.sigma_hat.shape == (2, 2)
        assert_allclose(est.sigma_hat, est.sigma_hat.T, rtol=0)
        assert est.intervals.shape == (2, 2)
        assert np.all(est.intervals[:, 0] < est.intervals[:, 1])

    def test_estimate_fields(self):
        # the level is the caller's input, which a report states once
        assert [f.name for f in fields(CovarianceEstimate)] == [
            "f0_hat", "omega_hat", "sigma_hat", "intervals"]

    def test_sigma_formula(self):
        # Sigma must equal tau*(1-tau) * inv(Omega) / f0^2 exactly as
        # assembled from the returned pieces
        fitted, data, cfg = self._fitted()
        est = covariance(fitted, data, cfg, make_rng(7))
        want = 0.25 * sym_inverse(est.omega_hat) / est.f0_hat ** 2
        assert_allclose(est.sigma_hat, want, rtol=1e-10)

    def test_intervals_match_formula(self):
        fitted, data, cfg = self._fitted()
        est = covariance(fitted, data, cfg, make_rng(7), level=0.95)
        half = Z_975 * np.sqrt(np.diag(est.sigma_hat) / data.n)
        assert_allclose(est.intervals[:, 0], fitted.theta_hat - half,
                        rtol=1e-12)
        assert_allclose(est.intervals[:, 1], fitted.theta_hat + half,
                        rtol=1e-12)

    def test_deterministic_given_rng(self):
        fitted, data, cfg = self._fitted()
        a = covariance(fitted, data, cfg, make_rng(8))
        b = covariance(fitted, data, cfg, make_rng(8))
        assert_allclose(a.sigma_hat, b.sigma_hat, rtol=0)

    def test_invalid_level_rejected_before_projection_fits(self,
                                                            monkeypatch):
        fitted, data, cfg = self._fitted(n=100)

        def no_projection(*args):
            raise AssertionError("a projection fit ran")
        monkeypatch.setattr(optimizer, "train_stack", no_projection)
        with pytest.raises(ConfigError):
            covariance(fitted, data, cfg, make_rng(7), level=1.5)

    def test_lowest_index_failing_projection_is_raised(self):
        # X_0 overflows its squared loss at the end of epoch 1; X_1
        # overflows its first gradient, earlier in that epoch. Fitting
        # them in order meets X_0's error first, and so does the stack
        fitted, data, cfg = self._fitted(n=100)
        fitted = replace(fitted, theta_hat=np.zeros(2))
        spread = 1.0 + np.random.default_rng(1).uniform(size=data.n)
        bad = Dataset(data.y, np.column_stack([1e200 * spread,
                                               1.5e308 * np.ones(data.n)]),
                      data.z)
        with pytest.raises(TrainingError) as raised:
            covariance(fitted, bad, cfg, make_rng(7))
        assert str(raised.value).startswith("non-finite loss at epoch 1")
        children = split(make_rng(7), 2)
        with pytest.raises(TrainingError, match="gradient"):
            fit_projection(bad, 1, cfg, children[1])
        with pytest.raises(TrainingError) as alone:
            fit_projection(bad, 0, cfg, children[0])
        assert str(alone.value) == str(raised.value)

    @pytest.mark.parametrize("bad", [dict(epochs=0),
                                     dict(learning_rate=-0.01),
                                     dict(depth=0)],
                             ids=["no-epochs", "negative-lr", "depth-0"])
    def test_bad_projection_config_rejected(self, bad):
        # the projections train on the config covariance is given, and
        # a bad config cannot be made, so an untrained, ascending or
        # silently deepened projection cannot reach Omega
        with pytest.raises(ConfigError):
            replace(TrainConfig(depth=2, width=8), **bad)

    def test_projection_minibatch_beyond_rows_rejected(self):
        # the one config rule that needs the rows: the kernel checks it,
        # and each epoch of a projection trains on 80 of the 100 rows
        fitted, data, cfg = self._fitted(n=100)
        with pytest.raises(ConfigError, match=(
                "^minibatch 81 exceeds the 80 training rows of 100$")):
            covariance(fitted, data, replace(cfg, minibatch=81),
                       make_rng(7))

    def test_singular_omega_names_the_least_varied_coefficient(
            self, monkeypatch):
        # sym_inverse is made to fail on the Omega it is given; covariance
        # re-raises, naming the coefficient whose projection residual
        # varies least: x2, scaled down a thousandfold, of three
        rng = np.random.default_rng(6201)
        n = 200
        z = rng.uniform(0, 2, size=(n, 2))
        x = rng.normal(size=(n, 3)) * [1.0, 1e-3, 1.0]
        y = x.sum(axis=1) + z.sum(axis=1) + rng.standard_normal(n)
        data = Dataset(y=y, x=x, z=z)
        fitted = fit_lqr(data, 0.5)
        given = []

        def fail(m):
            given.append(m)
            raise SingularMatrixError("not positive definite")
        monkeypatch.setattr(inference, "sym_inverse", fail)
        with pytest.raises(SingularMatrixError) as info:
            covariance(fitted, data, TrainConfig(), make_rng(0))
        omega, = given
        assert int(np.argmin(np.diag(omega))) == 1
        assert str(info.value) == (
            "projection residual covariance is singular; coefficient 1"
            f" has variance {omega[1, 1]:.3e} after projecting on z")
        assert str(info.value.__cause__) == "not positive definite"

    def test_lqr_closed_form(self):
        # an lqr fit projects X on [1, Z] exactly: Omega is the Schur
        # complement of the sample covariance of (X, Z) in its Z block,
        # and the rng and the config play no part
        rng = np.random.default_rng(2107)
        n = 300
        z = rng.uniform(0, 2, size=(n, 3))
        x = np.column_stack([z[:, 0] + rng.normal(size=n),
                             z[:, 1] * z[:, 2] + rng.normal(size=n)])
        y = x @ [1.0, -1.0] + z.sum(axis=1) + rng.standard_normal(n)
        data = Dataset(y=y, x=x, z=z)
        config = TrainConfig()
        fitted = fit_lqr(data, 0.3)
        est = covariance(fitted, data, config, make_rng(1))
        s = np.cov(np.hstack([x, z]), rowvar=False)
        omega = s[:2, :2] - s[:2, 2:] @ np.linalg.solve(s[2:, 2:], s[2:, :2])
        assert_allclose(est.omega_hat, omega, rtol=1e-10)
        f0 = kde_at_zero(data.y - predict_batch(fitted, x, z))
        assert est.f0_hat == f0
        sigma = 0.3 * 0.7 * np.linalg.inv(omega) / f0 ** 2
        assert_allclose(est.sigma_hat, sigma, rtol=1e-10)
        other = covariance(fitted, data, replace(config, depth=5, width=3),
                           make_rng(9))
        assert other.sigma_hat.tobytes() == est.sigma_hat.tobytes()
