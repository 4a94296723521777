"""Tests for Adam, minibatch scheduling, early stopping, and joint training."""

from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dplqr import model
from dplqr.errors import ConfigError, TrainingError
from dplqr.model import Dataset
from dplqr.optimizer import (ADAM_EPSILON_HAT, EarlyStopMonitor, TrainConfig,
                             _holdout_split, adam_step, epoch_batches,
                             init_adam, train_joint, tune)
from dplqr.quantile_loss import mean_check_loss
from dplqr.rng import make_rng, split


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0, 0.5])
        state = init_adam(p)
        adam_step(state, p, np.zeros(3), lr=0.1)
        assert_array_equal(p, [1.0, -2.0, 0.5])

    def test_first_step_magnitude(self):
        # with g = 1 everywhere both bias corrections cancel and the
        # first update is lr / (1 + epsilon_hat)
        p = np.array([0.0])
        state = init_adam(p)
        adam_step(state, p, np.array([1.0]), lr=0.01)
        assert_allclose(p[0], -0.01 / (1.0 + ADAM_EPSILON_HAT), rtol=1e-12)

    def test_param_updated_in_place(self):
        p = np.array([3.0, 1.0])
        view = p[:1]
        state = init_adam(p)
        assert adam_step(state, p, np.array([2.0, 0.0]), lr=0.5) is None
        assert p[0] < 3.0 and view[0] == p[0]
        assert p[1] == 1.0

    def test_step_count_advances(self):
        p = np.array([0.0])
        state = init_adam(p)
        for want in (1, 2, 3):
            adam_step(state, p, np.array([1.0]), lr=0.01)
            assert state.step_count == want

    def test_shape_mismatch_rejected(self):
        p = np.array([0.0, 0.0])
        state = init_adam(p)
        with pytest.raises(ConfigError):
            adam_step(state, p, np.array([1.0]), lr=0.01)
        with pytest.raises(ConfigError):  # moments of another array
            adam_step(state, np.zeros(3), np.ones(3), lr=0.01)

    def test_nonfinite_gradient_rejected(self):
        p = np.array([0.0, 0.0])
        state = init_adam(p)
        with pytest.raises(TrainingError):
            adam_step(state, p, np.array([1.0, np.nan]), lr=0.01)
        assert_array_equal(p, [0.0, 0.0])

    def test_minimizes_quadratic(self):
        # 2000 steps on f(x) = (x - 3)^2 from 0 with lr 0.01
        p = np.array([0.0])
        state = init_adam(p)
        for _ in range(2000):
            adam_step(state, p, 2.0 * (p - 3.0), lr=0.01)
        assert abs(p[0] - 3.0) < 1e-3


class TestEpochBatches:
    def test_sizes_and_coverage(self):
        batches = epoch_batches(5, 2, make_rng(0))
        assert [len(b) for b in batches] == [2, 2, 1]
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == [0, 1, 2, 3, 4]

    def test_full_batch(self):
        batches = epoch_batches(7, 7, make_rng(0))
        assert len(batches) == 1 and len(batches[0]) == 7

    def test_every_index_once_across_seeds(self):
        for seed in range(5):
            batches = epoch_batches(23, 4, make_rng(seed))
            seen = sorted(np.concatenate(batches).tolist())
            assert seen == list(range(23))

    def test_order_varies_with_rng(self):
        a = np.concatenate(epoch_batches(30, 5, make_rng(1)))
        b = np.concatenate(epoch_batches(30, 5, make_rng(2)))
        assert not np.array_equal(a, b)

    def test_invalid_minibatch(self):
        with pytest.raises(ConfigError):
            epoch_batches(5, 6, make_rng(0))
        with pytest.raises(ConfigError):
            epoch_batches(5, 0, make_rng(0))


class TestEarlyStopMonitor:
    def test_counting_example(self):
        # losses 1.0, 0.9, 0.95, 0.96 with patience 2: epochs 3 and 4
        # fail to beat 0.9, so the monitor stops after epoch 4
        m = EarlyStopMonitor(patience=2)
        assert m.update(1.0) is False
        assert m.update(0.9) is False
        assert m.update(0.95) is False
        assert m.update(0.96) is True
        assert m.best_epoch == 2
        assert m.best_loss == 0.9
        assert m.epochs_seen == 4

    def test_tie_is_not_improvement(self):
        m = EarlyStopMonitor(patience=1)
        assert m.update(1.0) is False
        assert m.update(1.0) is True

    def test_nan_is_not_improvement(self):
        m = EarlyStopMonitor(patience=1)
        assert m.update(float("nan")) is True

    def test_patience_validated(self):
        with pytest.raises(ConfigError):
            EarlyStopMonitor(patience=0)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_holds_training_settings_only(self):
        # randomness comes from the rng given to fit and tune
        assert [f.name for f in fields(TrainConfig)] == [
            "depth", "width", "epochs", "minibatch", "early_stop_patience",
            "learning_rate", "mode"]
        with pytest.raises(TypeError):
            TrainConfig(seed=1)

    def test_positive_integer_fields(self):
        for field in ("depth", "width", "epochs", "minibatch",
                      "early_stop_patience"):
            with pytest.raises(ConfigError):
                TrainConfig(**{field: 0}).validate()
            with pytest.raises(ConfigError):
                TrainConfig(**{field: 2.5}).validate()

    def test_learning_rate_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=float("nan")).validate()

    @pytest.mark.parametrize("lr", ["0.01", True], ids=["text", "bool"])
    def test_learning_rate_must_be_a_number(self, lr):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=lr).validate()

    def test_mode_checked(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="ridge").validate()

    def test_minibatch_against_sample_size(self):
        TrainConfig(minibatch=64).validate(n=64)
        with pytest.raises(ConfigError):
            TrainConfig(minibatch=65).validate(n=64)


def _linear_toy(n, seed, slope=2.0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = slope * x[:, 0] + noise * rng.normal(size=n)
    return y, x


def _no_z(y):
    # no network covariates: the (0, 1) network is the intercept
    return np.zeros((len(y), 0))


class TestTrainJoint:
    def test_learns_linear_median(self):
        y, x = _linear_toy(400, seed=0)
        cfg = TrainConfig(depth=1, width=1, epochs=300, minibatch=64,
                          early_stop_patience=300, learning_rate=0.02)
        theta, params, history = train_joint(
            y, x, _no_z(y), cfg, make_rng(3), tau=0.5)
        assert params.widths == (0, 1)
        assert abs(theta[0] - 2.0) < 0.1
        assert history.stopped_epoch <= 300

    def test_squared_loss_branch(self):
        y, x = _linear_toy(400, seed=1)
        cfg = TrainConfig(depth=1, width=1, epochs=300, minibatch=64,
                          early_stop_patience=300, learning_rate=0.02)
        theta, params, _ = train_joint(y, x, _no_z(y), cfg,
                                       make_rng(3), tau=None)
        assert params.widths == (0, 1)
        assert abs(theta[0] - 2.0) < 0.1

    def test_best_val_no_larger_than_first(self):
        y, x = _linear_toy(300, seed=2)
        cfg = TrainConfig(depth=2, width=4, epochs=50, minibatch=32,
                          early_stop_patience=50, learning_rate=0.01)
        z = np.abs(x)
        _, _, history = train_joint(y, x, z, cfg, make_rng(0),
                                    tau=0.5)
        best = min(history.val_loss)
        assert best <= history.val_loss[0] + 1e-12
        assert history.val_loss[history.best_epoch - 1] == best

    def test_early_stop_truncates(self):
        # zero target, which theta = 0 and the intercept's zero init fit
        # exactly: steps only move about the fit, validation loss stops
        # improving strictly, and patience kicks in well before epochs
        n = 100
        y = np.zeros(n)
        x = np.zeros((n, 1))
        cfg = TrainConfig(depth=1, width=1, epochs=500, minibatch=100,
                          early_stop_patience=5, learning_rate=1e-6)
        _, params, history = train_joint(y, x, _no_z(y), cfg,
                                         make_rng(1), tau=0.5)
        assert params.widths == (0, 1)
        assert history.stopped_epoch < 500
        assert len(history.val_loss) == history.stopped_epoch

    def test_returns_halt_time_parameters(self):
        # drive theta for a fixed number of epochs with patience large
        # enough never to trigger; the returned theta must match the
        # final epoch of the trace, not the best-validation epoch
        y, x = _linear_toy(200, seed=4)
        cfg = TrainConfig(depth=1, width=1, epochs=40, minibatch=200,
                          early_stop_patience=40, learning_rate=0.05)
        theta, params, history = train_joint(y, x, _no_z(y), cfg,
                                             make_rng(2), tau=0.5)
        assert params.widths == (0, 1)
        assert history.stopped_epoch == 40
        # full-batch training is deterministic given the rng, so rerunning
        # reproduces theta exactly
        theta2, params2, _ = train_joint(y, x, _no_z(y), cfg,
                                         make_rng(2), tau=0.5)
        assert_array_equal(theta, theta2)
        assert_array_equal(params.layers[0], params2.layers[0])

    def test_joint_linear_plus_network(self):
        rng = np.random.default_rng(7)
        n = 500
        x = rng.normal(size=(n, 1))
        z = rng.uniform(0, 2, size=(n, 2))
        y = 1.5 * x[:, 0] + np.sin(z[:, 0]) + z[:, 1] \
            + 0.1 * rng.normal(size=n)
        cfg = TrainConfig(depth=2, width=8, epochs=400, minibatch=64,
                          early_stop_patience=60, learning_rate=0.01)
        theta, params, _ = train_joint(y, x, z, cfg, make_rng(5),
                                       tau=0.5)
        assert params.widths == (2, 8, 1)
        assert abs(theta[0] - 1.5) < 0.25


class TestTune:
    def _data(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        z = rng.uniform(0, 2, size=(n, 3))
        y = x[:, 0] - x[:, 1] + z.sum(axis=1) + 0.2 * rng.normal(size=n)
        return Dataset(y=y, x=x, z=z)

    def test_single_candidate_short_circuit(self):
        cfg = TrainConfig()
        assert tune([cfg], self._data(), 0.5, make_rng(0)) is cfg

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            tune([], self._data(), 0.5, make_rng(0))

    def test_prefers_adequate_budget(self):
        # one epoch of training cannot move theta far from zero; a
        # many-epoch candidate should win the hold-out comparison
        starved = TrainConfig(depth=1, width=1, epochs=1, minibatch=96,
                              early_stop_patience=1, learning_rate=1e-5)
        trained = TrainConfig(depth=1, width=1, epochs=300, minibatch=32,
                              early_stop_patience=300, learning_rate=0.02)
        picked = tune([starved, trained], self._data(n=200, seed=3), 0.5,
                      rng=make_rng(0))
        assert picked is trained

    def test_minibatch_beyond_tuning_split_rejected(self, monkeypatch):
        # 120 rows leave 96 to train each candidate: minibatch 100 fits
        # the data but not the split
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(model, "fit_stack", no_fit)
        grid = [TrainConfig(depth=1, width=1, epochs=5, minibatch=mb,
                            early_stop_patience=5, learning_rate=0.01)
                for mb in (32, 100)]
        with pytest.raises(ConfigError, match="tuning split"):
            tune(grid, self._data(), 0.5, rng=make_rng(0))

    def test_candidate_settings_error_is_raised(self, monkeypatch):
        # a settings error holds for every candidate: it is raised, not
        # skipped as a failure to train
        def bad_settings(*args):
            raise ConfigError("bad settings")
        monkeypatch.setattr(model, "fit_stack", bad_settings)
        grid = [TrainConfig(depth=1, width=1, epochs=5, minibatch=32,
                            early_stop_patience=5, learning_rate=lr)
                for lr in (0.01, 0.02)]
        with pytest.raises(ConfigError, match="bad settings"):
            tune(grid, self._data(), 0.5, rng=make_rng(0))

    @pytest.mark.parametrize("mode, z_cols, fits", [
        ("dplqr", 0, 2), ("lqr", 3, 2), ("dplqr", 3, 8)])
    def test_each_distinct_network_is_fitted_once(self, monkeypatch, mode,
                                                  z_cols, fits):
        # depth x width x lr = 8 points; with no z columns, or in lqr
        # mode, they train only two networks, one per learning rate
        fitted = []

        def counted(data, tau, configs, rngs):
            fitted.extend(configs)
            return original(data, tau, configs, rngs)
        original = model.fit_stack
        monkeypatch.setattr(model, "fit_stack", counted)
        data = self._data()
        data = Dataset(data.y, data.x, data.z[:, :z_cols])
        grid = [TrainConfig(depth=d, width=w, epochs=3, minibatch=32,
                            early_stop_patience=3, learning_rate=lr,
                            mode=mode)
                for d in (2, 3) for w in (4, 8) for lr in (0.01, 0.02)]
        picked = tune(grid, data, 0.5, rng=make_rng(0))
        assert fitted == grid[:fits]
        assert picked in fitted

    def test_grid_of_one_network_is_returned_unfitted(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(model, "fit_stack", no_fit)
        grid = [TrainConfig(depth=d, width=w, epochs=3, minibatch=32,
                            mode="lqr") for d in (2, 3) for w in (4, 8)]
        assert tune(grid, self._data(), 0.5, rng=make_rng(0)) is grid[0]

    def test_kept_candidates_keep_their_streams(self, monkeypatch):
        # children are split over the full grid, so skipping the
        # duplicate at position 1 leaves position 2 its own stream
        drawn = []

        def record(data, tau, configs, rngs):
            drawn.extend(int(rng.integers(1 << 30)) for rng in rngs)
            raise TrainingError("stop")
        monkeypatch.setattr(model, "fit_stack", record)
        data = self._data()
        data = Dataset(data.y, data.x, None)
        grid = [TrainConfig(depth=2, width=w, epochs=3, minibatch=32,
                            learning_rate=lr)
                for w, lr in ((4, 0.01), (8, 0.01), (4, 0.02))]
        with pytest.warns(UserWarning), pytest.raises(TrainingError):
            tune(grid, data, 0.5, rng=make_rng(0))
        rng = make_rng(0)
        _holdout_split(data.n, rng)
        children = split(rng, len(grid))
        assert drawn == [int(children[k].integers(1 << 30)) for k in (0, 2)]

    def test_deterministic_given_rng(self):
        grid = [TrainConfig(depth=1, width=1, epochs=40, minibatch=32,
                            early_stop_patience=40, learning_rate=lr)
                for lr in (0.001, 0.02)]
        a = tune(list(grid), self._data(seed=5), 0.5, rng=make_rng(9))
        b = tune(list(grid), self._data(seed=5), 0.5, rng=make_rng(9))
        assert a is grid[grid.index(a)]
        assert a == b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_member_leaves_the_others_unchanged(self):
        # a learning rate of 1e300 makes one stacked candidate's loss
        # non-finite: tune warns and picks what fitting each candidate
        # alone on its child stream picks, from the same bytes
        data = self._data(n=200, seed=3)
        grid = [TrainConfig(depth=2, width=4, epochs=30, minibatch=32,
                            early_stop_patience=30, learning_rate=lr)
                for lr in (0.003, 1e300, 0.02)]
        with pytest.warns(UserWarning, match="failed: non-finite"):
            picked = tune(grid, data, 0.5, make_rng(4))

        def streams():
            rng = make_rng(4)
            tr_idx, val_idx = _holdout_split(data.n, rng)
            return (data.subset(tr_idx), data.subset(val_idx),
                    split(rng, len(grid)))
        train, val, children = streams()
        alone, scores = [], []
        for k, (config, child) in enumerate(zip(grid, children)):
            try:
                alone.append(model.fit(train, 0.5, config, child))
            except TrainingError as exc:
                alone.append(exc)
                continue
            residuals = model.residuals(alone[k], val)
            scores.append((mean_check_loss(residuals, 0.5), k))
        assert isinstance(alone[1], TrainingError)
        assert picked is grid[min(scores)[1]]

        train, _, children = streams()
        stacked = model.fit_stack(train, 0.5, grid, children)
        assert isinstance(stacked[1], TrainingError)
        assert str(stacked[1]) == str(alone[1])
        for k in (0, 2):
            got, want = stacked[k], alone[k]
            assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
            for layer, ref_layer in zip(got.network.layers,
                                        want.network.layers):
                assert layer.tobytes() == ref_layer.tobytes()
            assert got.history == want.history
