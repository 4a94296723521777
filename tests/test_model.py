"""Tests for the partially linear quantile regression model interface."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqr.errors import ConfigError, DataError
from dplqr.model import (Dataset, PlqrFit, fit, fit_stack, m_values,
                         predict, predict_batch, residuals)
from dplqr.network import NetworkParams
from dplqr.optimizer import TrainConfig
from dplqr.quantile_loss import mean_check_loss
from dplqr.rng import make_rng


def _toy_data(n=200, seed=0, theta=(1.0, -1.0), noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(theta)))
    z = rng.uniform(0.0, 2.0, size=(n, 2))
    m = np.sin(z[:, 0]) + 0.5 * z[:, 1]
    y = x @ np.asarray(theta) + m + noise * rng.normal(size=n)
    return Dataset(y=y, x=x, z=z)


class TestDataset:
    def test_shapes_and_counts(self):
        d = _toy_data(50)
        assert d.n == 50 and d.p == 2 and d.q == 2

    def test_one_dim_covariate_promoted(self):
        d = Dataset(y=np.zeros(4), x=np.arange(4.0), z=None)
        assert d.x.shape == (4, 1)
        assert d.z.shape == (4, 0)

    def test_both_blocks_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset(y=np.zeros(4), x=None, z=None)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, np.nan]), x=np.ones((2, 1)), z=None)
        with pytest.raises(DataError):
            Dataset(y=np.zeros(2), x=np.array([[1.0], [np.inf]]), z=None)

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(y=np.zeros(3), x=np.ones((4, 1)), z=None)

    def test_subset(self):
        d = _toy_data(20)
        s = d.subset([3, 5, 7])
        assert s.n == 3
        assert_allclose(s.y, d.y[[3, 5, 7]])


class TestMakeModeConfig:
    """A config made for a mode: TrainConfig(mode=...) or replace."""

    def test_lqr_forces_depth_one(self):
        # lqr trains one affine layer whatever depth the config names;
        # the config keeps its settings, so replace is lossless
        base = TrainConfig(depth=3, width=16)
        for cfg in (replace(base, mode="lqr"),
                    TrainConfig(depth=3, width=16, mode="lqr"),
                    replace(base, mode="lqr", depth=4)):
            assert cfg.width_chain(5) == (5, 1)
        assert replace(replace(base, mode="lqr"), mode="dplqr") == base
        assert base.width_chain(5) == (5, 16, 16, 1)

    def test_dnqr_keeps_architecture(self):
        base = TrainConfig(depth=3, width=12)
        cfg = replace(base, mode="dnqr")
        assert cfg.depth == 3 and cfg.width == 12 and cfg.mode == "dnqr"

    def test_base_not_mutated(self):
        base = TrainConfig(depth=3)
        replace(base, mode="lqr")
        assert base.depth == 3 and base.mode == "dplqr"

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode must be one of"):
            TrainConfig(mode="ols").validate()


class TestFit:
    def test_lqr_recovers_linear_median(self):
        # linear data with q = 0: the lqr fit is plain linear quantile
        # regression and theta_1 should land near its true value 1
        rng = np.random.default_rng(11)
        n = 200
        x = rng.normal(size=(n, 2))
        y = x[:, 0] - x[:, 1] + 0.3 * rng.normal(size=n)
        data = Dataset(y=y, x=x, z=None)
        cfg = TrainConfig(depth=1, width=1, epochs=400, minibatch=64,
                          early_stop_patience=400, learning_rate=0.02,
                          mode="lqr")
        fitted = fit(data, 0.5, cfg, make_rng(1))
        assert fitted.network.widths == (0, 1)
        assert 0.7 <= fitted.theta_hat[0] <= 1.3

    def test_x_only_fit_learns_the_intercept(self):
        # x carries no constant column, so with no z columns the (0, 1)
        # network must carry the intercept 5; without it theta absorbs
        # the level and lands far from 2
        rng = np.random.default_rng(0)
        n = 1000
        x = rng.uniform(0.0, 1.0, size=n)
        y = 5.0 + 2.0 * x + 0.1 * rng.normal(size=n)
        fitted = fit(Dataset(y, x, None), 0.5, TrainConfig(epochs=300),
                     make_rng(1))
        assert fitted.network.widths == (0, 1)
        assert abs(fitted.theta_hat[0] - 2.0) < 0.1
        assert abs(predict(fitted, 0.0) - 5.0) < 0.1
        assert_allclose(m_values(fitted, np.zeros((3, 0))),
                        predict_batch(fitted, np.zeros((3, 1)), None),
                        rtol=0, atol=0)

    def test_lqr_parameter_count(self):
        # with q network covariates, depth 1 means one affine layer with
        # q weights and one bias: q + 1 trainable values beyond theta
        data = _toy_data(100, seed=2)
        cfg = TrainConfig(epochs=5, minibatch=50, early_stop_patience=5,
                          mode="lqr")
        fitted = fit(data, 0.5, cfg, make_rng(0))
        assert len(fitted.network.layers) == 1
        assert fitted.network.layers[0].shape == (1, data.q + 1)

    def test_lqr_config_with_depth_fits_one_affine_layer(self):
        # the mode alone makes an lqr fit linear, whatever depth it names
        data = _toy_data(100, seed=2)
        cfg = TrainConfig(depth=3, width=8, epochs=5, minibatch=50,
                          early_stop_patience=5, mode="lqr")
        fitted = fit(data, 0.5, cfg, make_rng(0))
        assert fitted.network.widths == (data.q, 1)
        assert fitted.mode == "lqr"

    def test_dnqr_routes_everything_into_network(self):
        data = _toy_data(100, seed=3)
        cfg = TrainConfig(depth=2, width=12, epochs=5, minibatch=50,
                          early_stop_patience=5, mode="dnqr")
        fitted = fit(data, 0.5, cfg, make_rng(0))
        assert fitted.theta_hat.shape == (0,)
        assert fitted.network.widths[0] == data.p + data.q
        assert fitted.network.widths[1] == 12

    def test_constant_response_degenerate(self):
        # constant y: any tau-quantile equals that constant, so the
        # fitted model should predict near it everywhere (the affine
        # layer's bias can absorb the level)
        n = 80
        rng = np.random.default_rng(0)
        data = Dataset(y=np.full(n, 2.5), x=rng.normal(size=(n, 1)),
                       z=rng.uniform(0, 2, size=(n, 1)))
        cfg = TrainConfig(depth=1, width=1, epochs=400, minibatch=80,
                          early_stop_patience=400, learning_rate=0.02)
        fitted = fit(data, 0.5, cfg, make_rng(4))
        preds = predict_batch(fitted, data.x, data.z)
        assert np.max(np.abs(preds - 2.5)) < 0.1
        assert mean_check_loss(residuals(fitted, data), 0.5) < 0.1

    def test_too_few_rows(self):
        data = Dataset(y=np.zeros(4), x=np.ones((4, 1)), z=None)
        with pytest.raises(DataError):
            fit(data, 0.5, TrainConfig(minibatch=2), make_rng(0))

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            fit(_toy_data(50), 1.5, TrainConfig(minibatch=10), make_rng(0))

    def test_reproducible_given_rng(self):
        data = _toy_data(120, seed=6)
        cfg = TrainConfig(depth=2, width=4, epochs=20, minibatch=32,
                          early_stop_patience=20)
        a = fit(data, 0.3, cfg, make_rng(7))
        b = fit(data, 0.3, cfg, make_rng(7))
        assert_allclose(a.theta_hat, b.theta_hat, rtol=0)
        for wa, wb in zip(a.network.layers, b.network.layers):
            assert_allclose(wa, wb, rtol=0)

    def test_stacked_dnqr_fits_match_fitting_alone(self):
        # the stack routes x into the network as fit does
        data = _toy_data(120, seed=8)
        configs = [TrainConfig(depth=2, width=4, epochs=15, minibatch=32,
                               early_stop_patience=4, learning_rate=lr,
                               mode="dnqr") for lr in (0.01, 0.05)]
        stacked = fit_stack(data, 0.5, configs, [make_rng(1), make_rng(2)])
        for k, config in enumerate(configs):
            alone = fit(data, 0.5, config, make_rng(k + 1))
            assert stacked[k].network.widths == alone.network.widths
            assert stacked[k].theta_hat.shape == (0,)
            for got, want in zip(stacked[k].network.layers,
                                 alone.network.layers):
                assert got.tobytes() == want.tobytes()
            assert stacked[k].history == alone.history
            assert (stacked[k].mode, stacked[k].x_dim, stacked[k].z_dim) \
                == (alone.mode, alone.x_dim, alone.z_dim)

    def test_stack_of_fits_needs_one_mode(self):
        configs = [TrainConfig(depth=1, width=1, epochs=2, minibatch=32,
                               mode=mode) for mode in ("dplqr", "lqr")]
        with pytest.raises(ConfigError, match="one mode"):
            fit_stack(_toy_data(60), 0.5, configs,
                      [make_rng(0), make_rng(1)])


class TestPredict:
    def _affine_fit(self):
        # hand-assembled fit: theta = (2, -1), network = single affine
        # layer with weights (0.5, 0.25) and bias 1
        net = NetworkParams((2, 1), [np.array([[0.5, 0.25, 1.0]])])
        return PlqrFit(theta_hat=np.array([2.0, -1.0]), network=net,
                       tau=0.5, history=None, mode="dplqr",
                       x_dim=2, z_dim=2)

    def test_hand_value(self):
        fitted = self._affine_fit()
        # 2*1 - 1*2 + (0.5*4 + 0.25*0 + 1) = 0 + 3 = 3
        got = predict(fitted, np.array([1.0, 2.0]), np.array([4.0, 0.0]))
        assert_allclose(got, 3.0)

    def test_batch_matches_single(self):
        fitted = self._affine_fit()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2))
        z = rng.normal(size=(10, 2))
        batch = predict_batch(fitted, x, z)
        single = [predict(fitted, xi, zi) for xi, zi in zip(x, z)]
        assert_allclose(batch, single, rtol=1e-12)

    def test_shape_errors(self):
        fitted = self._affine_fit()
        with pytest.raises(DataError):
            predict(fitted, np.array([1.0]), np.array([4.0, 0.0]))
        with pytest.raises(DataError):
            predict_batch(fitted, np.ones((5, 2)), np.ones((4, 2)))


class TestResiduals:
    def test_residual_definition(self):
        data = _toy_data(60, seed=9)
        cfg = TrainConfig(depth=2, width=4, epochs=10, minibatch=30,
                          early_stop_patience=10)
        fitted = fit(data, 0.5, cfg, make_rng(0))
        r = residuals(fitted, data)
        assert_allclose(r, data.y - predict_batch(fitted, data.x, data.z),
                        rtol=1e-12)

    def test_dimension_guard(self):
        data = _toy_data(60, seed=9)
        cfg = TrainConfig(depth=2, width=4, epochs=5, minibatch=30,
                          early_stop_patience=5)
        fitted = fit(data, 0.5, cfg, make_rng(0))
        other = Dataset(y=np.zeros(10), x=np.ones((10, 3)),
                        z=np.ones((10, 2)))
        with pytest.raises(DataError):
            residuals(fitted, other)


class TestMValues:
    def test_matches_network_forward(self):
        data = _toy_data(80, seed=10)
        cfg = TrainConfig(depth=2, width=4, epochs=10, minibatch=40,
                          early_stop_patience=10)
        fitted = fit(data, 0.5, cfg, make_rng(0))
        z = data.z[:7]
        full = predict_batch(fitted, np.zeros((7, 2)), z)
        assert_allclose(m_values(fitted, z), full, rtol=1e-12)

    def test_dnqr_has_no_m(self):
        data = _toy_data(80, seed=10)
        cfg = TrainConfig(depth=2, width=4, epochs=5, minibatch=40,
                          early_stop_patience=5, mode="dnqr")
        fitted = fit(data, 0.5, cfg, make_rng(0))
        with pytest.raises(ConfigError):
            m_values(fitted, data.z)


class TestStatisticalProperties:
    def test_calibration_at_fitted_quantiles(self):
        # on a large sample the share of negative training residuals
        # should be close to tau for each fitted level; the z-side bias
        # lets the fit absorb the quantile shift of the noise
        rng = np.random.default_rng(15)
        n = 1000
        x = rng.normal(size=(n, 1))
        z = rng.uniform(0, 2, size=(n, 1))
        y = 2.0 * x[:, 0] + z[:, 0] + rng.standard_normal(n)
        data = Dataset(y=y, x=x, z=z)
        for tau in (0.25, 0.5, 0.75):
            cfg = TrainConfig(depth=1, width=1, epochs=400, minibatch=500,
                              early_stop_patience=400, learning_rate=0.02)
            fitted = fit(data, tau, cfg, make_rng(3))
            frac = float(np.mean(residuals(fitted, data) < 0))
            assert abs(frac - tau) <= 0.05, f"tau={tau}: frac={frac}"

    def test_location_equivariance(self):
        # shifting every response by a constant shifts predictions by
        # about the same constant
        data = _toy_data(300, seed=20, noise=0.2)
        shifted = Dataset(y=data.y + 5.0, x=data.x, z=data.z)
        cfg = TrainConfig(depth=2, width=8, epochs=300, minibatch=64,
                          early_stop_patience=100, learning_rate=0.01)
        f0 = fit(data, 0.5, cfg, make_rng(8))
        f1 = fit(shifted, 0.5, cfg, make_rng(8))
        d0 = np.mean(predict_batch(f0, data.x, data.z))
        d1 = np.mean(predict_batch(f1, data.x, data.z))
        assert abs((d1 - d0) - 5.0) < 0.05

    def test_lqr_close_to_exact_minimum(self):
        # compare the trained lqr objective against a dense grid search
        # over (intercept-free) slopes on 1-d data; Adam should come
        # within 2% of the best grid value
        rng = np.random.default_rng(30)
        n = 150
        x = rng.normal(size=(n, 1))
        y = 1.0 * x[:, 0] + rng.standard_normal(n)
        data = Dataset(y=y, x=x, z=None)
        cfg = TrainConfig(depth=1, width=1, epochs=500, minibatch=150,
                          early_stop_patience=500, learning_rate=0.02)
        fitted = fit(data, 0.5, cfg, make_rng(2))
        achieved = mean_check_loss(residuals(fitted, data), 0.5)
        grid = np.linspace(-2.0, 3.0, 2001)
        best = min(mean_check_loss(y - b * x[:, 0], 0.5) for b in grid)
        assert achieved <= best * 1.02
