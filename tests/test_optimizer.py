"""Tests for Adam, minibatch scheduling, early stopping, and joint training."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dplqr import model, network, optimizer
from dplqr.errors import ConfigError, DataError, TrainingError
from dplqr.model import Dataset
from dplqr.optimizer import (ADAM_EPSILON_HAT, TrainConfig, TrainHistory,
                             _check_rows, _holdout_split, _record_epoch,
                             adam_step, epoch_batches, init_adam, train_ahead,
                             train_joint, tune)
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

    def test_no_rows(self):
        with pytest.raises(ConfigError,
                           match="^epoch_batches needs n >= 1, got 0$"):
            epoch_batches(0, 1, make_rng(7502))


class TestEarlyStop:
    @staticmethod
    def _record(val_losses, patience):
        history = TrainHistory([], [], best_epoch=0, stopped_epoch=0)
        config = TrainConfig(epochs=100, early_stop_patience=patience)
        halts = [_record_epoch(history, 0.0, val, config)
                 for val in val_losses]
        return history, halts

    def test_counting_example(self):
        # losses 1.0, 0.9, 0.95, 0.96 with patience 2: epochs 3 and 4
        # fail to beat 0.9, so the member halts after epoch 4
        history, halts = self._record([1.0, 0.9, 0.95, 0.96], patience=2)
        assert halts == [False, False, False, True]
        assert history.best_epoch == 2
        assert history.val_loss[history.best_epoch - 1] == 0.9
        assert history.stopped_epoch == 4

    def test_tie_is_not_improvement(self):
        history, halts = self._record([1.0, 1.0], patience=1)
        assert halts == [False, True]
        assert history.best_epoch == 1


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_holds_training_settings_only(self):
        # randomness comes from the rng given to fit and tune
        assert [f.name for f in fields(TrainConfig)] == [
            "depth", "width", "epochs", "minibatch", "early_stop_patience",
            "learning_rate"]
        with pytest.raises(TypeError):
            TrainConfig(seed=1)
        # lqr is a method fitted by model.fit_lqr, not a training mode
        with pytest.raises(TypeError):
            TrainConfig(mode="lqr")

    def test_positive_integer_fields(self):
        for field in ("depth", "width", "epochs", "minibatch",
                      "early_stop_patience"):
            with pytest.raises(ConfigError):
                TrainConfig(**{field: 0})
            with pytest.raises(ConfigError):
                TrainConfig(**{field: 2.5})

    def test_learning_rate_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=float("nan"))

    @pytest.mark.parametrize("lr", ["0.01", True], ids=["text", "bool"])
    def test_learning_rate_must_be_a_number(self, lr):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=lr)

    def test_checked_when_made_or_replaced(self):
        config = TrainConfig()
        with pytest.raises(ConfigError, match="depth must be positive"):
            replace(config, depth=0)

    def test_minibatch_against_sample_size(self):
        # 64 rows hold out 12 for early stopping, so each epoch trains on 52
        _check_rows(TrainConfig(minibatch=52), 64)
        with pytest.raises(ConfigError, match=(
                "^minibatch 53 exceeds the 52 training rows of 64$")):
            _check_rows(TrainConfig(minibatch=53), 64)

    def test_too_few_rows_before_the_minibatch(self):
        _check_rows(TrainConfig(minibatch=4), 5)
        with pytest.raises(DataError,
                           match=r"^need at least 5 rows to fit, got 4$"):
            _check_rows(TrainConfig(minibatch=8), 4)


def _linear_toy(n, seed, slope=2.0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = slope * x[:, 0] + noise * rng.normal(size=n)
    return y, x


def _no_z(y):
    # no network covariates: the (0, 1) network is the intercept
    return np.zeros((len(y), 0))


class TestTrainJoint:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_too_few_rows_before_any_draw(self, n):
        # the kernel's row rule holds for a lone fit and for each member
        # of a stack, and is checked before an rng is drawn from
        y, x = _linear_toy(n, seed=0)
        cfg = TrainConfig(depth=2, width=4, epochs=3, minibatch=2)
        rngs = [make_rng(1), make_rng(2)]
        says = rf"^need at least 5 rows to fit, got {n}$"
        with pytest.raises(DataError, match=says):
            train_joint(y, x, _no_z(y), cfg, rngs[0], tau=0.5)
        with pytest.raises(DataError, match=says):
            optimizer.train_stack(np.stack([y, -y]), x, _no_z(y),
                                  [cfg, cfg], rngs)
        assert [r.bit_generator.state for r in rngs] == [
            make_rng(k).bit_generator.state for k in (1, 2)]

    def test_two_dim_target_rejected(self):
        y, x = _linear_toy(10, seed=7503)
        with pytest.raises(DataError,
                           match=r"^y must be 1-d, got shape \(1, 10\)$"):
            train_joint(y[None], x, _no_z(y), TrainConfig(minibatch=4),
                        make_rng(7504))

    @pytest.mark.parametrize("case, error, says", [
        ("no-members", ConfigError,
         r"^a stack needs one rng per config, got 0 configs and 0 rngs$"),
        ("rng-short", ConfigError,
         r"^a stack needs one rng per config, got 2 configs and 1 rngs$"),
        ("ys-rows", DataError,
         r"^ys must have one row per member, got \(1, 10\)$"),
        ("x-rows", DataError,
         r"^x must have shape \(10, p\), got \(9, 1\)$"),
        ("x-1d", DataError,
         r"^x must have shape \(10, p\), got \(10,\)$"),
        ("x-3d", DataError,
         r"^x must have shape \(10, p\), got \(10, 1, 1\)$"),
        ("z-rows", DataError,
         r"^z must have shape \(10, q\), got \(9, 0\)$"),
    ])
    def test_stack_argument_errors(self, case, error, says):
        y, x = _linear_toy(10, seed=7503)
        ys, z = np.stack([y, -y]), _no_z(y)
        cfg = TrainConfig(minibatch=4)
        configs, rngs = [cfg, cfg], [make_rng(7504), make_rng(7505)]
        if case == "no-members":
            configs, rngs = [], []
        elif case == "rng-short":
            rngs = rngs[:1]
        elif case == "ys-rows":
            ys = ys[:1]
        elif case == "x-rows":
            x = x[:9]
        elif case == "x-1d":
            x = x[:, 0]
        elif case == "x-3d":
            x = x[..., None]
        else:
            z = z[:9]
        with pytest.raises(error, match=says):
            optimizer.train_stack(ys, x, z, configs, rngs, tau=0.5)
        assert [r.bit_generator.state for r in rngs] == [
            make_rng(k).bit_generator.state for k in (7504, 7505)][:len(rngs)]

    def test_one_dim_x_rejected_before_drawing(self):
        # a lone fit takes the kernel's block rule: a 1-d x is not read
        # as one column, and the rng is not drawn from
        y, x = _linear_toy(10, seed=8235)
        rng = make_rng(8236)
        with pytest.raises(DataError, match=(
                r"^x must have shape \(10, p\), got \(10,\)$")):
            train_joint(y, x[:, 0], _no_z(y), TrainConfig(minibatch=4), rng,
                        tau=0.5)
        assert rng.bit_generator.state == make_rng(8236).bit_generator.state

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
        cfg = TrainConfig(depth=1, width=1, epochs=500, minibatch=80,
                          early_stop_patience=5, learning_rate=1e-6)
        _, params, history = train_joint(y, x, _no_z(y), cfg,
                                         make_rng(1), tau=0.5)
        assert params.widths == (0, 1)
        assert history.stopped_epoch < 500
        assert len(history.val_loss) == history.stopped_epoch

    def test_one_network_pass_per_step_and_one_per_epoch(self, monkeypatch):
        # the training loss comes from the residuals of the epoch's own
        # steps, so the only other pass an epoch runs is over the 30
        # validation rows; the 120 training rows make batches of 32, 32,
        # 32 and 24
        y, x = _linear_toy(150, seed=6)
        rows, forward = [], network.forward_batch

        def counted(params, z_matrix, acts=None):
            rows.append(z_matrix.shape[-2])
            return forward(params, z_matrix, acts)
        monkeypatch.setattr(network, "forward_batch", counted)
        cfg = TrainConfig(depth=2, width=4, epochs=7, minibatch=32,
                          early_stop_patience=7, learning_rate=0.01)
        _, _, history = train_joint(y, x, np.abs(x), cfg, make_rng(0),
                                    tau=0.5)
        assert history.stopped_epoch == 7
        assert len(history.train_loss) == len(history.val_loss) == 7
        assert rows == [32, 32, 32, 24, 30] * 7

    def test_returns_halt_time_parameters(self):
        # drive theta for a fixed number of epochs with patience large
        # enough never to trigger; the returned theta must match the
        # final epoch of the trace, not the best-validation epoch
        y, x = _linear_toy(200, seed=4)
        cfg = TrainConfig(depth=1, width=1, epochs=40, minibatch=160,
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

    def test_one_row_cannot_hold_out_a_split(self):
        # two distinct candidates need a tuning split, and one row has none
        grid = [TrainConfig(learning_rate=0.01),
                TrainConfig(learning_rate=0.02)]
        rng = make_rng(7506)
        with pytest.raises(DataError, match=(
                "^need at least 2 rows to hold out a split, got 1$")):
            tune(grid, self._data().subset([0]), 0.5, rng)
        assert rng.bit_generator.state == make_rng(7506).bit_generator.state

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
        # 120 rows leave a tuning split of 96, 77 of which train each
        # epoch of a candidate: minibatch 100 fits the data but not the
        # split
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(optimizer, "train_stack", no_fit)
        grid = [TrainConfig(depth=1, width=1, epochs=5, minibatch=mb,
                            early_stop_patience=5, learning_rate=0.01)
                for mb in (32, 100)]
        with pytest.raises(ConfigError, match="tuning split"):
            tune(grid, self._data(), 0.5, rng=make_rng(0))

    def test_candidate_minibatch_beyond_its_training_rows(self,
                                                          monkeypatch):
        # 300 rows leave a tuning split of 240, and each epoch of a
        # candidate trains on 192 of them: 192 is planned, and 193 is a
        # settings error before anything trains or the rng is drawn from
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(optimizer, "train_stack", no_fit)
        grid = [TrainConfig(depth=1, width=1, epochs=5, minibatch=192,
                            learning_rate=lr) for lr in (0.01, 0.02)]
        data = self._data(n=300, seed=8224)
        plan = optimizer.tuning_plan(grid, data.n, data.q)
        assert list(plan.values()) == [[0, 1]]
        rng = make_rng(8225)
        with pytest.raises(ConfigError, match=(
                "^minibatch 193 exceeds the 192 training rows of 240 in the"
                " tuning split of 300$")):
            tune([replace(c, minibatch=193) for c in grid], data, 0.5, rng)
        assert rng.bit_generator.state == make_rng(8225).bit_generator.state

    @pytest.mark.parametrize("n, message", [
        (5, "need at least 5 rows to fit, got 4 in the tuning split of 5"),
        (4, "need at least 5 rows to fit, got 4")],
        ids=["split", "lone"])
    def test_too_few_rows_rejected_before_training(self, monkeypatch,
                                                   recwarn, n, message):
        # two candidates train on the 4-row split of 5 rows, a lone one
        # on all 4 rows: either is a data error before any training, and
        # the rng is not drawn from
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(optimizer, "train_stack", no_fit)
        lrs = (0.01, 0.02) if n == 5 else (0.01,)
        grid = [TrainConfig(depth=2, width=4, epochs=5, minibatch=2,
                            learning_rate=lr) for lr in lrs]
        rng = make_rng(0)
        with pytest.raises(DataError, match=f"^{message}$"):
            tune(grid, self._data(n=n), 0.5, rng)
        assert len(recwarn) == 0
        assert rng.bit_generator.state == make_rng(0).bit_generator.state

    def test_candidate_settings_error_is_raised(self, monkeypatch):
        # a settings error holds for every candidate: it is raised, not
        # skipped as a failure to train
        def bad_settings(*args):
            raise ConfigError("bad settings")
        monkeypatch.setattr(optimizer, "train_stack", bad_settings)
        grid = [TrainConfig(depth=1, width=1, epochs=5, minibatch=32,
                            early_stop_patience=5, learning_rate=lr)
                for lr in (0.01, 0.02)]
        with pytest.raises(ConfigError, match="bad settings"):
            tune(grid, self._data(), 0.5, rng=make_rng(0))

    @pytest.mark.parametrize("z_cols, fits", [(0, 2), (3, 8)])
    def test_each_distinct_network_is_fitted_once(self, monkeypatch, z_cols,
                                                  fits):
        # depth x width x lr = 8 points; with no z columns they train
        # only two networks, one per learning rate
        fitted = []

        def counted(ys, x, z, configs, rngs, tau=None):
            fitted.extend(configs)
            return original(ys, x, z, configs, rngs, tau)
        original = optimizer.train_stack
        monkeypatch.setattr(optimizer, "train_stack", counted)
        data = self._data()
        data = Dataset(data.y, data.x, data.z[:, :z_cols])
        grid = [TrainConfig(depth=d, width=w, epochs=3, minibatch=32,
                            early_stop_patience=3, learning_rate=lr)
                for d in (2, 3) for w in (4, 8) for lr in (0.01, 0.02)]
        picked = tune(grid, data, 0.5, rng=make_rng(0))
        assert fitted == grid[:fits]
        assert picked in fitted

    def test_grid_of_one_network_is_returned_unfitted(self, monkeypatch):
        # with no z columns every depth and width trains the (0, 1)
        # intercept network
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(optimizer, "train_stack", no_fit)
        data = self._data()
        grid = [TrainConfig(depth=d, width=w, epochs=3, minibatch=32)
                for d in (2, 3) for w in (4, 8)]
        assert tune(grid, Dataset(data.y, data.x, None), 0.5,
                    rng=make_rng(0)) is grid[0]

    def test_kept_candidates_keep_their_streams(self, monkeypatch):
        # children are split over the full grid, so skipping the
        # duplicate at position 1 leaves position 2 its own stream
        drawn = []

        def record(ys, x, z, configs, rngs, tau=None):
            drawn.extend(int(rng.integers(1 << 30)) for rng in rngs)
            return [TrainingError("stop")] * len(configs)
        monkeypatch.setattr(optimizer, "train_stack", record)
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

    def test_failing_member_leaves_the_others_unchanged(self, monkeypatch):
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

        # the stack as tune trains it; inside the block every fit is
        # handed out, so the kernel must not run again
        def no_training(*args):
            raise AssertionError("a member was trained again")
        train, _, children = streams()
        ys = np.broadcast_to(train.y, (len(grid), train.n))
        stacked = []
        with train_ahead(ys, train.x, train.z, grid, children, 0.5):
            monkeypatch.setattr(optimizer, "train_stack", no_training)
            for config, child in zip(grid, children):
                try:
                    stacked.append(model.fit(train, 0.5, config, child))
                except TrainingError as exc:
                    stacked.append(exc)
        assert isinstance(stacked[1], TrainingError)
        assert str(stacked[1]) == str(alone[1])
        for k in (0, 2):
            got, want = stacked[k], alone[k]
            assert got.theta_hat.tobytes() == want.theta_hat.tobytes()
            for layer, ref_layer in zip(got.network.layers,
                                        want.network.layers):
                assert layer.tobytes() == ref_layer.tobytes()
            assert got.history == want.history
