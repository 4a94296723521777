"""Tests for the partially linear quantile regression model interface."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqr import experiment, model, optimizer
from dplqr.dgp import Z_DIM, DgpSpec
from dplqr.errors import ConfigError, DataError
from dplqr.model import (Dataset, PlqrFit, fit, fit_lqr, m_values,
                         predict, predict_batch, residuals)
from dplqr.network import NetworkParams
from dplqr.optimizer import TrainConfig, _holdout_split, tune
from dplqr.inference import covariance
from dplqr.quantile_loss import check_loss, mean_check_loss
from dplqr.rng import make_rng, split
from dplqr.rq import rq


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

    def test_two_dim_y_rejected(self):
        with pytest.raises(DataError,
                           match=r"^y must be 1-d, got shape \(3, 1\)$"):
            Dataset(y=np.zeros((3, 1)), x=np.ones((3, 1)), z=None)

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(y=np.zeros(3), x=np.ones((4, 1)), z=None)

    def test_subset(self):
        d = _toy_data(20)
        s = d.subset([3, 5, 7])
        assert s.n == 3
        assert_allclose(s.y, d.y[[3, 5, 7]])


class TestFit:
    def test_lqr_recovers_linear_median(self):
        # linear data with q = 0: the lqr fit is plain linear quantile
        # regression and theta_1 should land near its true value 1
        rng = np.random.default_rng(11)
        n = 200
        x = rng.normal(size=(n, 2))
        y = x[:, 0] - x[:, 1] + 0.3 * rng.normal(size=n)
        fitted = fit_lqr(Dataset(y=y, x=x, z=None), 0.5)
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
        # with q network covariates, the lqr fit is one affine layer with
        # q weights and one bias: q + 1 values beyond theta
        data = _toy_data(100, seed=2)
        fitted = fit_lqr(data, 0.5)
        assert len(fitted.network.layers) == 1
        assert fitted.network.layers[0].shape == (1, data.q + 1)

    def test_lqr_config_with_depth_fits_one_affine_layer(self, monkeypatch):
        # the lqr method takes the grid's first entry and fits one affine
        # layer on z, whatever depth and width that entry names
        fits = []

        def recorded(data, tau):
            fits.append(fit_lqr(data, tau))
            return fits[-1]
        monkeypatch.setattr(experiment, "fit_lqr", recorded)
        grid = [TrainConfig(depth=3, width=8, epochs=5, minibatch=50,
                            early_stop_patience=5)]
        experiment.run_experiment(DgpSpec(case=1, n=100), 1,
                                  methods=("lqr",), grid=grid, with_ci=False)
        (fitted,) = fits
        assert fitted.network.widths == (Z_DIM, 1)
        assert fitted.mode == "lqr"

    def test_lqr_fit_is_the_exact_solution(self):
        # theta is the x part of rq on [x, z, 1], the affine layer holds
        # the z part and the intercept; nothing trains
        data = _toy_data(150, seed=2109)
        fitted = fit_lqr(data, 0.3)
        beta, _ = rq(np.hstack([data.x, data.z, np.ones((data.n, 1))]),
                     data.y, 0.3)
        assert fitted.theta_hat.tobytes() == beta[:2].tobytes()
        assert fitted.network.layers[0].tobytes() == beta[2:].tobytes()
        assert fitted.history is None

    def test_lqr_fit_tune_and_covariance_never_train(self, monkeypatch):
        # an lqr fit, its intervals (which project x on z exactly) and
        # the lqr method of an experiment train nothing: lqr takes the
        # grid's first entry untuned, so a minibatch beyond the rows is no
        # error
        def no_training(*args, **kwargs):
            raise AssertionError("train_stack was called")
        monkeypatch.setattr(optimizer, "train_stack", no_training)
        data = _toy_data(150, seed=2109)
        fitted = fit_lqr(data, 0.5)
        estimate = covariance(fitted, data, TrainConfig(minibatch=500),
                              make_rng(3))
        assert np.all(estimate.intervals[:, 0] < fitted.theta_hat)
        grid = [TrainConfig(depth=3, learning_rate=lr, minibatch=500)
                for lr in (0.01, 0.02)]
        report = experiment.run_experiment(DgpSpec(case=1, n=150), 1,
                                           methods=("lqr",), grid=grid)
        assert report.methods["lqr"].replicates == 1

    def test_dnqr_routes_everything_into_network(self):
        # the dnqr method fits dplqr on its layout: no x, and z = [x, z]
        data = _toy_data(100, seed=3)
        layout = experiment._method_data("dnqr", data)
        assert layout.z.tobytes() == np.hstack([data.x, data.z]).tobytes()
        cfg = TrainConfig(depth=2, width=12, epochs=5, minibatch=50,
                          early_stop_patience=5)
        fitted = fit(layout, 0.5, cfg, make_rng(0))
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
        cfg = TrainConfig(depth=1, width=1, epochs=400, minibatch=64,
                          early_stop_patience=400, learning_rate=0.02)
        fitted = fit(data, 0.5, cfg, make_rng(4))
        preds = predict_batch(fitted, data.x, data.z)
        assert np.max(np.abs(preds - 2.5)) < 0.1
        assert mean_check_loss(residuals(fitted, data), 0.5) < 0.1

    def test_non_dataset_rejected(self):
        data = _toy_data(20)
        with pytest.raises(DataError, match="^fit expects a Dataset$"):
            fit((data.y, data.x, data.z), 0.5, TrainConfig(), make_rng(7501))

    def test_too_few_rows(self):
        data = Dataset(y=np.zeros(4), x=np.ones((4, 1)), z=None)
        with pytest.raises(DataError):
            fit(data, 0.5, TrainConfig(minibatch=2), make_rng(0))

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            fit(_toy_data(50), 1.5, TrainConfig(minibatch=10), make_rng(0))

    def test_minibatch_beyond_training_rows(self):
        # 300 rows hold out 60 for early stopping, so each epoch trains on
        # 240: minibatch 240 is one full-batch step per epoch, and 241 is
        # refused before the rng is drawn from
        data = _toy_data(300, seed=8221)
        short = TrainConfig(depth=1, width=1, epochs=2, minibatch=240)
        assert fit(data, 0.5, short, make_rng(8222)).history.stopped_epoch == 2
        rng = make_rng(8223)
        with pytest.raises(ConfigError, match=(
                "^minibatch 241 exceeds the 240 training rows of 300$")):
            fit(data, 0.5, TrainConfig(depth=1, width=1, epochs=2,
                                        minibatch=241), rng)
        assert rng.bit_generator.state == make_rng(8223).bit_generator.state

    def test_reproducible_given_rng(self):
        data = _toy_data(120, seed=6)
        cfg = TrainConfig(depth=2, width=4, epochs=20, minibatch=32,
                          early_stop_patience=20)
        a = fit(data, 0.3, cfg, make_rng(7))
        b = fit(data, 0.3, cfg, make_rng(7))
        assert_allclose(a.theta_hat, b.theta_hat, rtol=0)
        for wa, wb in zip(a.network.layers, b.network.layers):
            assert_allclose(wa, wb, rtol=0)

    def _tuned_and_alone(self, monkeypatch, grid, data):
        """The member learning rates of each stack tune trains, the fits
        tune hands out by grid position, and each candidate fitted alone
        on the child stream tune gives it."""
        stacks, handed = [], {}
        train_stack, fit_alone = optimizer.train_stack, model.fit

        def stack(ys, x, z, configs, rngs, tau=None):
            stacks.append([c.learning_rate for c in configs])
            return train_stack(ys, x, z, configs, rngs, tau)

        def recorded(train, tau, config, rng):
            k = grid.index(config)
            handed[k] = fit_alone(train, tau, config, rng)
            return handed[k]
        monkeypatch.setattr(optimizer, "train_stack", stack)
        monkeypatch.setattr(model, "fit", recorded)
        tune(grid, data, 0.5, make_rng(3))
        monkeypatch.undo()

        rng = make_rng(3)
        train = data.subset(_holdout_split(data.n, rng)[0])
        children = split(rng, len(grid))
        alone = [fit(train, 0.5, config, child)
                 for config, child in zip(grid, children)]
        return stacks, handed, alone

    @staticmethod
    def _assert_same_bytes(got, want):
        assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
        assert got.network.widths == want.network.widths
        for layer, ref_layer in zip(got.network.layers, want.network.layers):
            assert layer.tobytes() == ref_layer.tobytes()
        assert got.history == want.history
        assert (got.tau, got.mode) == (want.tau, want.mode)

    def test_dnqr_candidates_tuned_as_one_stack_match_fitting_alone(
            self, monkeypatch):
        # a dnqr grid is a dplqr grid on the dnqr layout
        grid = [TrainConfig(depth=2, width=4, epochs=15, minibatch=32,
                            early_stop_patience=4, learning_rate=lr)
                for lr in (0.01, 0.05)]
        data = experiment._method_data("dnqr", _toy_data(120, seed=8))
        stacks, handed, alone = self._tuned_and_alone(monkeypatch, grid,
                                                      data)
        assert stacks == [[0.01, 0.05]]
        assert sorted(handed) == [0, 1]
        for k in handed:
            assert handed[k].theta_hat.shape == (0,)
            self._assert_same_bytes(handed[k], alone[k])


def _affine_fit():
    # hand-assembled fit: theta = (2, -1), network = single affine
    # layer with weights (0.5, 0.25) and bias 1
    net = NetworkParams((2, 1), [np.array([[0.5, 0.25, 1.0]])])
    return PlqrFit(theta_hat=np.array([2.0, -1.0]), network=net,
                   tau=0.5, history=None, mode="dplqr")


class TestPredict:
    def test_hand_value(self):
        fitted = _affine_fit()
        # 2*1 - 1*2 + (0.5*4 + 0.25*0 + 1) = 0 + 3 = 3
        got = predict(fitted, np.array([1.0, 2.0]), np.array([4.0, 0.0]))
        assert_allclose(got, 3.0)

    def test_batch_matches_single(self):
        fitted = _affine_fit()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2))
        z = rng.normal(size=(10, 2))
        batch = predict_batch(fitted, x, z)
        single = [predict(fitted, xi, zi) for xi, zi in zip(x, z)]
        assert_allclose(batch, single, rtol=1e-12)

    def test_batch_without_x_columns(self):
        # a model fitted with no x columns takes x=None and predicts
        # from z alone, the bytes of an explicit (n, 0) x block
        rng = np.random.default_rng(6203)
        z = rng.uniform(0.0, 2.0, size=(60, 2))
        y = np.sin(z[:, 0]) + 0.3 * rng.normal(size=60)
        cfg = TrainConfig(depth=2, width=4, epochs=10, minibatch=30,
                          early_stop_patience=10)
        fitted = fit(Dataset(y, None, z), 0.5, cfg, make_rng(6204))
        assert fitted.theta_hat.shape == (0,)
        got = predict_batch(fitted, None, z)
        assert got.shape == (60,)
        assert got.tobytes() == \
            predict_batch(fitted, np.zeros((60, 0)), z).tobytes()

    def test_shape_errors(self):
        fitted = _affine_fit()
        with pytest.raises(DataError):
            predict(fitted, np.array([1.0]), np.array([4.0, 0.0]))
        with pytest.raises(DataError):
            predict_batch(fitted, np.ones((5, 2)), np.ones((4, 2)))

    @pytest.mark.parametrize("x, z, says", [
        ([1.0], [4.0, 0.0], r"^x must have shape \(1, 2\), got \(1, 1\)$"),
        ([1.0, 2.0], [4.0, 0.0, 1.0],
         r"^z must have shape \(1, 2\), got \(1, 3\)$"),
        ([[1.0, 2.0]], [4.0, 0.0],
         r"^x must have shape \(1, 2\), got \(1, 1, 2\)$"),
    ], ids=["short-x", "long-z", "2-d-point"])
    def test_point_is_checked_as_one_row(self, x, z, says):
        # predict makes each block one row and predict_batch checks it
        with pytest.raises(DataError, match=says):
            predict(_affine_fit(), x, z)

    def test_batch_reads_a_1d_block_as_one_column(self):
        # a 1-d block is a column, as in a Dataset, never a row: a length-2
        # x beside a one-row z is two rows of one column, so it is refused
        with pytest.raises(DataError, match=(
                r"^x must have shape \(1, 2\), got \(2, 1\)$")):
            predict_batch(_affine_fit(), np.array([1.0, 2.0]),
                          np.array([[4.0, 0.0]]))

    def test_batch_needs_a_2d_block(self):
        with pytest.raises(DataError, match=(
                "^predict_batch needs at least one 2-d covariate block$")):
            predict_batch(_affine_fit(), np.ones(2), None)


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

    @pytest.mark.parametrize("p, q, says", [
        (3, 2, r"^x must have shape \(10, 2\), got \(10, 3\)$"),
        (2, 1, r"^z must have shape \(10, 2\), got \(10, 1\)$"),
    ], ids=["wrong-p", "wrong-q"])
    def test_data_of_another_layout(self, p, q, says):
        other = Dataset(y=np.zeros(10), x=np.ones((10, p)),
                        z=np.ones((10, q)))
        with pytest.raises(DataError, match=says):
            residuals(_affine_fit(), other)


class TestMValues:
    def test_matches_network_forward(self):
        data = _toy_data(80, seed=10)
        cfg = TrainConfig(depth=2, width=4, epochs=10, minibatch=40,
                          early_stop_patience=10)
        fitted = fit(data, 0.5, cfg, make_rng(0))
        z = data.z[:7]
        full = predict_batch(fitted, np.zeros((7, 2)), z)
        assert_allclose(m_values(fitted, z), full, rtol=1e-12)

    @pytest.mark.parametrize("z, shape", [
        (np.ones((3, 3)), r"\(3, 3\)"), (np.ones(2), r"\(2,\)")],
        ids=["wrong-width", "1-d"])
    def test_z_must_be_rows_of_the_fit_width(self, z, shape):
        with pytest.raises(DataError, match=(
                rf"^network expects inputs of width 2, got shape {shape}$")):
            m_values(_affine_fit(), z)


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

    def test_affine_adam_fit_close_to_grid_minimum(self):
        # compare the check loss of a full-batch Adam fit of a slope and
        # an intercept (depth 1, no z) against a dense grid search over
        # (intercept-free) slopes on 1-d data; Adam should come within 2%
        # of the best grid value
        rng = np.random.default_rng(30)
        n = 150
        x = rng.normal(size=(n, 1))
        y = 1.0 * x[:, 0] + rng.standard_normal(n)
        data = Dataset(y=y, x=x, z=None)
        cfg = TrainConfig(depth=1, width=1, epochs=500, minibatch=120,
                          early_stop_patience=500, learning_rate=0.02)
        fitted = fit(data, 0.5, cfg, make_rng(2))
        achieved = mean_check_loss(residuals(fitted, data), 0.5)
        grid = np.linspace(-2.0, 3.0, 2001)
        best = min(mean_check_loss(y - b * x[:, 0], 0.5) for b in grid)
        assert achieved <= best * 1.02

    def test_lqr_reaches_the_exact_minimum(self):
        # the same comparison for an lqr fit, which is exact: its check
        # loss is at or below that of every point of a slope x intercept
        # grid
        rng = np.random.default_rng(2108)
        n = 150
        x = rng.normal(size=(n, 1))
        y = 0.5 + 1.0 * x[:, 0] + rng.standard_normal(n)
        fitted = fit_lqr(Dataset(y=y, x=x, z=None), 0.5)
        achieved = mean_check_loss(residuals(fitted, Dataset(y, x, None)),
                                   0.5)
        slopes, levels = np.meshgrid(np.linspace(0.0, 2.0, 201),
                                     np.linspace(-0.5, 1.5, 201))
        preds = slopes.ravel()[:, None] * x[:, 0] + levels.ravel()[:, None]
        losses = np.mean(check_loss(y - preds, 0.5), axis=1)
        assert achieved <= losses.min() + 1e-15
        assert np.sort(losses)[0] - achieved < 1e-3
