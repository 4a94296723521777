"""End-to-end tests of the command line interface.

Commands run in-process through dplqr.cli.main so exit codes and output
files can be checked without shelling out.
"""

import json
import os
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dplqr import cli
from dplqr import experiment
from dplqr import network
from dplqr import optimizer
from dplqr.cli import _OPTIONS, build_parser, main
from dplqr.dgp import DgpSpec, generate
from dplqr.errors import (ConfigError, DataError, DplqrError,
                          SingularMatrixError, TrainingError)
from dplqr.model import Dataset, predict_batch
from dplqr.modelio import (ColumnRoles, apply_scaling, compute_scaling,
                           load_csv, load_model, save_model)
from dplqr.optimizer import TrainConfig, tune
from dplqr.rng import make_rng


def _write_training_csv(path, n=150, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    z = rng.uniform(0, 2, size=(n, 2))
    y = x[:, 0] - x[:, 1] + z.sum(axis=1) + 0.3 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,x1,x2,z1,z2\n")
        for i in range(n):
            row = (y[i], x[i, 0], x[i, 1], z[i, 0], z[i, 1])
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


@pytest.fixture
def train_csv(tmp_path):
    return str(_write_training_csv(tmp_path / "train.csv"))


def _fit_args(train_csv, tmp_path, **extra):
    args = ["fit", "--data", train_csv, "--y", "y", "--x", "x1,x2",
            "--z", "z1,z2", "--tau", "0.5", "--seed", "3",
            "--depth", "2", "--width", "4", "--epochs", "40",
            "--minibatch", "64", "--patience", "40",
            "--out", str(tmp_path / "model.json")]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestFitCommand:
    def test_writes_model_and_report(self, train_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(_fit_args(train_csv, tmp_path, report=str(report)))
        assert code == 0
        out = capsys.readouterr().out
        assert "theta[1]" in out and "theta[2]" in out
        assert (tmp_path / "model.json").exists()
        payload = json.loads(report.read_text())
        assert payload["command"] == "fit"
        assert len(payload["theta_hat"]) == 2
        assert payload["covariance"]["intervals"] is not None
        history = payload["history"]
        assert history["stopped_epoch"] >= 1
        assert (len(history["train_loss"]) == len(history["val_loss"])
                == history["stopped_epoch"])
        assert payload["schema_version"] == 3
        assert payload["seed"] == 3 and payload["mode"] == "dplqr"
        assert payload["config"] == dict(depth=2, width=4, lr=0.01,
                                         epochs=40, minibatch=64,
                                         patience=40)
        assert payload["widths"] == [2, 4, 1]

    @pytest.mark.parametrize("roles, widths", [
        (["--x", "x1,x2", "--z", "z1,z2", "--mode", "lqr"], [2, 1]),
        (["--x", "x1,x2"], [0, 1]),
        (["--x", "x1,x2", "--z", "z1,z2", "--mode", "dnqr"], [4, 4, 1]),
    ], ids=["lqr", "x-only", "dnqr"])
    def test_report_names_the_trained_widths(self, train_csv, tmp_path,
                                             roles, widths):
        # the config keeps the depth as given; widths is what trained
        report = tmp_path / "report.json"
        args = ["fit", "--data", train_csv, "--y", "y", "--depth", "2",
                "--width", "4", "--epochs", "5", "--seed", "4",
                "--out", str(tmp_path / "model.json"),
                "--report", str(report)] + roles
        assert main(args) == 0
        payload = json.loads(report.read_text())
        assert payload["widths"] == widths
        assert payload["config"]["depth"] == 2
        # an lqr fit is solved, not trained: it has no history
        assert (payload["history"] is None) == ("lqr" in roles)
        assert "mode" not in payload["config"]
        assert "seed" not in payload["config"]
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["network"]["widths"] == widths
        assert model["schema_version"] == 1

    def test_lqr_ignores_the_training_flags(self, train_csv, tmp_path):
        # lqr is solved exactly: seed, grid, epochs and a minibatch beyond
        # the 150 rows leave the model file as the defaults write it
        plain, odd = tmp_path / "plain.json", tmp_path / "odd.json"
        roles = ["fit", "--data", train_csv, "--y", "y", "--x", "x1,x2",
                 "--z", "z1,z2", "--mode", "lqr"]
        assert main(roles + ["--out", str(plain)]) == 0
        assert main(roles + ["--out", str(odd), "--seed", "9", "--lr",
                             "0.5,0.9", "--depth", "1,4", "--epochs", "1",
                             "--minibatch", "1000", "--patience", "1"]) == 0
        assert odd.read_bytes() == plain.read_bytes()

    def test_deterministic_model_bytes(self, train_csv, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = _fit_args(train_csv, tmp_path)
        args[args.index("--out") + 1] = str(a)
        assert main(args) == 0
        args[args.index("--out") + 1] = str(b)
        assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_is_data_error(self, train_csv, tmp_path,
                                          capsys):
        args = _fit_args(train_csv, tmp_path)
        args[args.index("--y") + 1] = "nope"
        code = main(args)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:data:")

    @pytest.mark.parametrize("flag, names", [
        ("x", "x1,"), ("x", "x1,,x2"), ("z", ",z1"), ("z", "z1, ")])
    def test_empty_column_name_is_config_error(self, flag, names, tmp_path,
                                               capsys):
        # rejected before the data file, which does not exist, is read
        args = _fit_args(str(tmp_path / "missing.csv"), tmp_path)
        args[args.index(f"--{flag}") + 1] = names
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(
            f"error:config: --{flag} has an empty name")

    def test_bad_tau_is_config_error(self, train_csv, tmp_path, capsys):
        code = main(_fit_args(train_csv, tmp_path, tau="1.5"))
        assert code != 0
        assert capsys.readouterr().err.startswith("error:config:")

    def test_bad_tau_with_a_grid_is_config_error(self, train_csv, tmp_path,
                                                 capsys, monkeypatch):
        # two learning rates make fit tune first; the bad tau is a
        # settings error, not a failure of every candidate to train
        def no_fit(*args):
            raise AssertionError("a candidate was trained")
        monkeypatch.setattr(optimizer, "train_stack", no_fit)
        code = main(_fit_args(train_csv, tmp_path, tau="1.5",
                              lr="0.01,0.02"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: tau")

    def test_bad_level_exits_before_training(self, train_csv, tmp_path,
                                             capsys, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the model was trained")
        monkeypatch.setattr(cli, "fit_model", no_fit)
        monkeypatch.setattr(cli, "tune", no_fit)
        code = main(_fit_args(train_csv, tmp_path, level="1.5"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: level")

    @pytest.mark.parametrize("command, flag, value, says", [
        ("fit", "tau", "1.5", "tau must lie strictly inside (0, 1), got 1.5"),
        ("fit", "level", "1.5", "level must be in (0, 1), got 1.5"),
        ("tune", "tau", "1.5", "tau must lie strictly inside (0, 1), got 1.5"),
        ("fit", "depth", "2,x",
         "expected comma-separated integers, got '2,x'"),
        ("fit", "lr", "0.01,abc",
         "expected comma-separated numbers, got '0.01,abc'")],
        ids=["fit-tau", "fit-level", "tune-tau", "fit-depth-list",
             "fit-lr-list"])
    def test_bad_setting_is_checked_before_the_data(
            self, tmp_path, capsys, monkeypatch, command, flag, value, says):
        # the data file does not exist and is never opened
        def no_load(*args, **kwargs):
            raise AssertionError("the data was loaded")
        monkeypatch.setattr(cli, "load_csv", no_load)
        argv = _fit_args(str(tmp_path / "absent.csv"), tmp_path,
                         **{flag: value})
        argv[0] = command
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error:config: {says}\n"
        assert not (tmp_path / "model.json").exists()

    def test_minibatch_beyond_tuning_split_is_config_error(self, tmp_path,
                                                           capsys):
        # 300 rows: one lr fits on all of them, and each epoch trains on
        # 240; two tune on 240, and each epoch of a candidate trains on 192
        data = str(_write_training_csv(tmp_path / "train.csv", n=300))
        assert main(_fit_args(data, tmp_path, minibatch=240)) == 0
        code = main(_fit_args(data, tmp_path, minibatch=240,
                              lr="0.01,0.02"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error:config: minibatch 240 exceeds the 192 training rows of"
            " 240 in the tuning split of 300\n")

    def test_minibatch_beyond_training_rows_is_config_error(self, tmp_path,
                                                            capsys):
        # 300 rows hold out 60 for early stopping, so a minibatch of 241
        # is refused before anything trains, and no file is written
        data = str(_write_training_csv(tmp_path / "train.csv", n=300))
        report = tmp_path / "report.json"
        code = main(_fit_args(data, tmp_path, minibatch=241,
                              report=str(report)))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error:config: minibatch 241 exceeds the 240 training rows of"
            " 300\n")
        assert not (tmp_path / "model.json").exists()
        assert not report.exists()

    def test_too_few_rows_for_intervals_is_data_error(self, tmp_path,
                                                      capsys, monkeypatch):
        # 7 rows fit, but the Wald intervals fit computes need 10: that
        # is said before any tuning, and nothing is written
        def no_tune(*args):
            raise AssertionError("the grid was tuned")
        monkeypatch.setattr(cli, "tune", no_tune)
        data = str(_write_training_csv(tmp_path / "train.csv", n=7))
        code = main(_fit_args(data, tmp_path, minibatch=4,
                              report=str(tmp_path / "report.json")))
        assert code == 2
        assert capsys.readouterr().err == (
            "error:data: Wald intervals need at least 10 rows, got 7\n")
        assert os.listdir(tmp_path) == ["train.csv"]

    def test_failed_fit_prints_one_line(self, tmp_path, capsys, recwarn):
        # a learning rate of 1e300 overflows the first gradient: the
        # kernel catches it, and numpy says nothing of the overflow
        data = generate(DgpSpec(case=1, n=200), make_rng(8284))
        names = ["y", "x1", "x2"] + [f"z{k + 1}" for k in range(data.q)]
        path = tmp_path / "d.csv"
        np.savetxt(path, np.column_stack([data.y, data.x, data.z]),
                   delimiter=",", header=",".join(names), comments="")
        argv = ["fit", "--data", str(path), "--y", "y", "--x", "x1,x2",
                "--z", ",".join(names[3:]), "--lr", "1e300", "--epochs", "3",
                "--out", str(tmp_path / "model.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error:training: non-finite gradient in adam_step\n")
        assert len(recwarn) == 0

    def test_too_small_tuning_split_is_one_data_error(self, tmp_path,
                                                      capsys, monkeypatch,
                                                      recwarn):
        # 5 rows leave 4 to train each of two candidates: a data error
        # before anything trains, with no warning about the candidates
        def no_fit(*args):
            raise AssertionError("a candidate was fitted")
        monkeypatch.setattr(optimizer, "train_stack", no_fit)
        data = str(_write_training_csv(tmp_path / "train.csv", n=5))
        argv = ["fit", "--data", data, "--y", "y", "--x", "x1,x2",
                "--lr", "0.01,0.02", "--minibatch", "2",
                "--out", str(tmp_path / "model.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error:data: need at least 5 rows to fit, got 4 in the tuning"
            " split of 5\n")
        assert len(recwarn) == 0

    def test_non_utf8_data_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("y,x1,x2,z1,z2\n1,2,3,4,caf\u00e9\n"
                         .encode("latin-1"))
        code = main(_fit_args(str(path), tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:data:")

    def test_missing_file_is_data_error(self, tmp_path, capsys,
                                        monkeypatch):
        args = _fit_args(str(tmp_path / "absent.csv"), tmp_path)
        code = main(args)
        assert code != 0
        assert capsys.readouterr().err.startswith("error:data:")
        # every error class carries the category its error line names
        for cls, category in [(ConfigError, "config"), (DataError, "data"),
                              (TrainingError, "training"),
                              (SingularMatrixError, "singular"),
                              (DplqrError, "internal")]:
            def fail(*args, error=cls("boom"), **kwargs):
                raise error
            monkeypatch.setattr(cli, "load_csv", fail)
            assert cls.category == category
            assert main(args) == 2
            assert capsys.readouterr().err == f"error:{category}: boom\n"

    @pytest.mark.parametrize("roles", [
        ["--x", "x1,x1", "--z", "z1"],
        ["--x", "x1", "--z", "x1,z1"],
        ["--y", "x1", "--x", "x1", "--z", "z1"],
    ], ids=["x-twice", "x-and-z", "y-and-x"])
    @pytest.mark.parametrize("command", ["fit", "tune"])
    def test_column_with_two_roles_is_config_error(
            self, train_csv, tmp_path, capsys, monkeypatch, command, roles):
        def no_load(*args, **kwargs):
            raise AssertionError("the data was loaded")
        monkeypatch.setattr(cli, "load_csv", no_load)
        args = [command, "--data", train_csv, "--y", "y"] + roles
        if command == "fit":
            args += ["--out", str(tmp_path / "model.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: column(s) ['x1']")

    @pytest.mark.parametrize("roles, widths", [
        (["--x", "x1,x2", "--width", "4,8,16", "--depth", "2,3"], [(0, 1)]),
        (["--x", "x1,x2", "--z", "z1,z2", "--mode", "lqr", "--width",
          "4,8", "--depth", "2,3"], []),
    ], ids=["x-only", "lqr"])
    def test_grid_of_one_network_trains_it_once(self, train_csv, tmp_path,
                                                monkeypatch, roles, widths):
        # every grid point trains the same network, so tuning fits none
        # and the final fit remains; lqr is solved exactly, so neither its
        # fit nor its two projections train
        from dplqr import inference, model
        trained = []

        def counted(original):
            def train(*args, **kwargs):
                result = original(*args, **kwargs)
                trained.append(result[1].widths)
                return result
            return train
        for module in (model, inference):
            monkeypatch.setattr(module, "train_joint",
                                counted(module.train_joint))
        args = ["fit", "--data", train_csv, "--y", "y", "--epochs", "5",
                "--out", str(tmp_path / "model.json")] + roles
        assert main(args) == 0
        assert trained == widths

    def test_grid_over_learning_rates(self, train_csv, tmp_path):
        # two learning rates: tuning picks one and the fit still lands
        code = main(_fit_args(train_csv, tmp_path, lr="0.005,0.02"))
        assert code == 0

    def test_config_file_supplies_defaults(self, train_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau": 0.3, "depth": "2",
                                      "width": "4", "epochs": 30,
                                      "patience": 30}),
                          encoding="utf-8")
        args = ["fit", "--data", train_csv, "--y", "y", "--x", "x1,x2",
                "--z", "z1,z2", "--seed", "1", "--minibatch", "64",
                "--config", str(config),
                "--out", str(tmp_path / "model.json")]
        assert main(args) == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["tau"] == 0.3

    def test_flag_overrides_config_file(self, train_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau": 0.3}), encoding="utf-8")
        args = _fit_args(train_csv, tmp_path, config=str(config))
        # _fit_args pins --tau 0.5 which must win over the file's 0.3
        assert main(args) == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["tau"] == 0.5

    def test_unknown_config_key_rejected(self, train_csv, tmp_path,
                                         capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"taus": 0.3}), encoding="utf-8")
        code = main(_fit_args(train_csv, tmp_path, config=str(config)))
        assert code != 0
        assert capsys.readouterr().err.startswith("error:config:")


    def test_config_file_must_hold_an_object(self, train_csv, tmp_path,
                                             capsys):
        config = tmp_path / "config.json"
        config.write_text("5", encoding="utf-8")
        code = main(_fit_args(train_csv, tmp_path, config=str(config)))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:data:")


class TestConfigValueTypes:
    """A --config value of the wrong JSON type is a config error, exit 2."""

    def _run(self, tmp_path, command, payload, train_csv=None):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        if command == "simulate":
            args = ["simulate", "--out-dir", str(tmp_path / "sim")]
        else:
            args = [command, "--data", train_csv, "--y", "y", "--x",
                    "x1,x2", "--z", "z1,z2"]
            if command == "fit":
                args += ["--out", str(tmp_path / "model.json")]
        return main(args + ["--config", str(config)])

    def _assert_rejected(self, code, capsys, key):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        {"epochs": "abc"}, {"epochs": 1.5}, {"epochs": True},
        {"seed": "3"}])
    def test_integer_key(self, payload, train_csv, tmp_path, capsys):
        code = self._run(tmp_path, "fit", payload, train_csv)
        self._assert_rejected(code, capsys, next(iter(payload)))
        assert not (tmp_path / "model.json").exists()

    def test_integer_key_of_simulate(self, tmp_path, capsys):
        code = self._run(tmp_path, "simulate", {"workers": "x"})
        self._assert_rejected(code, capsys, "workers")

    @pytest.mark.parametrize("command", ["fit", "tune", "simulate"])
    def test_float_key(self, command, train_csv, tmp_path, capsys):
        code = self._run(tmp_path, command, {"tau": "abc"}, train_csv)
        self._assert_rejected(code, capsys, "tau")

    @pytest.mark.parametrize("command, payload", [
        ("fit", {"x": ["x1", "x2"]}), ("fit", {"mode": 1}),
        ("simulate", {"methods": 3})])
    def test_string_key(self, command, payload, train_csv, tmp_path,
                        capsys):
        code = self._run(tmp_path, command, payload, train_csv)
        self._assert_rejected(code, capsys, next(iter(payload)))

    def test_bool_key(self, train_csv, tmp_path, capsys):
        code = self._run(tmp_path, "fit", {"scale": "no"}, train_csv)
        self._assert_rejected(code, capsys, "scale")

    def test_numbers_accepted_for_grid_lists(self, train_csv, tmp_path):
        payload = {"depth": 2, "width": 4, "lr": 0.02, "epochs": 20,
                   "minibatch": 64, "patience": 20, "tau": 0.5,
                   "scale": False, "level": 0.9, "seed": 1}
        assert self._run(tmp_path, "fit", payload, train_csv) == 0

    def test_null_leaves_a_key_unset(self, train_csv, tmp_path, capsys):
        # epochs, lr and scale null in the file take their defaults, as
        # when the file does not name them
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"epochs": None, "lr": None, "scale": None}), encoding="utf-8")
        common = ["--data", train_csv, "--y", "y", "--x", "x1,x2", "--z",
                  "z1,z2", "--depth", "2", "--minibatch", "64",
                  "--patience", "5"]
        fit = ["fit", *common, "--width", "4", "--seed", "7511"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*fit, "--config", str(config), "--out", str(a)]) == 0
        assert main([*fit, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        tune = ["tune", *common, "--width", "4,8", "--seed", "7512"]
        assert main([*tune, "--config", str(config)]) == 0
        with_nulls = capsys.readouterr().out
        assert main(tune) == 0
        assert capsys.readouterr().out == with_nulls
        assert json.loads(with_nulls)["epochs"] == TrainConfig().epochs

    @pytest.mark.parametrize("flag, value", [
        ("mode", "bogus"), ("sigma_x_terms", "bogus")])
    def test_bad_choice_is_the_config_file_error(self, flag, value,
                                                 train_csv, tmp_path,
                                                 capsys):
        # a value no choice matches fails as it does from --config: one
        # error:config: line, before anything is read or written
        command = "fit" if flag == "mode" else "simulate"
        code = self._run(tmp_path, command, {flag: value}, train_csv)
        from_config = capsys.readouterr().err
        if command == "fit":
            argv = _fit_args(train_csv, tmp_path, **{flag: value})
        else:
            argv = ["simulate", "--sigma-x-terms", value,
                    "--out-dir", str(tmp_path / "sim")]
        assert main(argv) == code == 2
        err = capsys.readouterr().err
        assert err == from_config and err.count("\n") == 1
        assert err.startswith(f"error:config: {flag} must be one of")
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "sim").exists()

    def test_every_setting_flag_has_one_declaration(self):
        # the one flag that is not a setting is the config file itself
        not_settings = {"command", "func", "config"}
        dests = set()
        for command in ("fit", "tune", "simulate"):
            dests |= vars(build_parser().parse_args([command])).keys()
        assert dests - not_settings == set(_OPTIONS)


def _model_payload():
    """A well-formed dplqr model: x_dim 2, z_dim 2, widths (2, 3, 1)."""
    return {
        "schema_version": 1, "tau": 0.5, "mode": "dplqr",
        "theta": [1.0, -1.0], "x_dim": 2, "z_dim": 2,
        "network": {"widths": [2, 3, 1],
                    "layers": [[0.1] * 9, [0.2] * 4]},
        "columns": {"y": "y", "x": ["x1", "x2"], "z": ["z1", "z2"]},
        "scaling": None,
    }


def _malformed(edit):
    payload = _model_payload()
    edit(payload)
    return payload


class TestPredictCommand:
    def _fit_once(self, train_csv, tmp_path):
        model = tmp_path / "model.json"
        assert main(_fit_args(train_csv, tmp_path)) == 0
        return str(model)

    def test_predictions_file(self, train_csv, tmp_path):
        model = self._fit_once(train_csv, tmp_path)
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", model, "--data", train_csv,
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 151  # header + one per training row
        float(lines[1])  # parses as a number

    def test_prediction_without_response_column(self, train_csv, tmp_path):
        model = self._fit_once(train_csv, tmp_path)
        bare = tmp_path / "bare.csv"
        with open(train_csv, encoding="utf-8") as src:
            rows = [line.split(",") for line in src.read().splitlines()]
        with open(bare, "w", encoding="utf-8") as dst:
            for row in rows:
                dst.write(",".join(row[1:]) + "\n")
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", model, "--data", str(bare),
                     "--out", str(out)])
        assert code == 0

    def test_prediction_deterministic(self, train_csv, tmp_path):
        model = self._fit_once(train_csv, tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["predict", "--model", model, "--data", train_csv,
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_quoted_copy_predicts_the_same_bytes(self, train_csv,
                                                 tmp_path):
        # quotes send the copy through the row reader, the plain file
        # through the bulk reader
        model = self._fit_once(train_csv, tmp_path)
        quoted = tmp_path / "quoted.csv"
        with open(train_csv, encoding="utf-8") as src:
            lines = src.read().splitlines()
        quoted.write_text("".join(
            ",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
            for line in lines), encoding="utf-8")
        plain, twin = tmp_path / "plain.csv", tmp_path / "twin.csv"
        for data, out in ((train_csv, plain), (quoted, twin)):
            assert main(["predict", "--model", model, "--data", str(data),
                         "--out", str(out)]) == 0
        assert plain.read_bytes() == twin.read_bytes()

    def test_large_file_predicts_the_bytes_of_one_pass(self, train_csv,
                                                       tmp_path):
        # more than 2 * PASS_ROWS rows (and more than one CSV chunk):
        # read in chunks, run in row blocks and written block by block
        model = self._fit_once(train_csv, tmp_path)
        rows = 2 * network.PASS_ROWS + 5
        data = str(_write_training_csv(tmp_path / "big.csv", n=rows, seed=1))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", model, "--data", data,
                     "--out", str(out)]) == 0
        fitted, roles, scaling = load_model(model)
        inputs = apply_scaling(load_csv(data, roles), scaling)
        with mock.patch.object(network, "PASS_ROWS", 10 * rows):
            values = predict_batch(fitted, inputs.x, inputs.z)
        assert out.read_bytes() == ("prediction\n" + "".join(
            f"{v!r}\n" for v in values.tolist())).encode()

    def test_dimension_mismatch_is_data_error(self, train_csv, tmp_path,
                                              capsys):
        # a model whose roles name columns the data lacks
        data = Dataset(y=np.zeros(20), x=np.ones((20, 1)),
                       z=np.ones((20, 1)))
        from dplqr.model import fit as fit_model
        fitted = fit_model(data, 0.5,
                           TrainConfig(depth=1, width=1, epochs=5,
                                       minibatch=10, early_stop_patience=5),
                           make_rng(0))
        other = tmp_path / "other_model.json"
        save_model(str(other), fitted,
                   ColumnRoles(y="y", x=["x1"], z=["z1"]))
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(other), "--data", train_csv,
                     "--out", str(out)])
        assert code == 0  # columns x1, z1 exist in train_csv; fine
        bad_roles = ColumnRoles(y="y", x=["x1", "missing"], z=["z1"])
        save_model(str(other), fitted, bad_roles)
        code = main(["predict", "--model", str(other), "--data", train_csv,
                     "--out", str(out)])
        assert code != 0
        assert capsys.readouterr().err.startswith("error:data:")


    def test_well_formed_handmade_model_predicts(self, train_csv,
                                                 tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_payload()), encoding="utf-8")
        code = main(["predict", "--model", str(model), "--data", train_csv,
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 0

    @pytest.mark.parametrize("payload, says", [
        ([], ""),
        ({"schema_version": 1}, ""),
        (_malformed(lambda m: m.pop("network")), ""),
        (_malformed(lambda m: m.update(mode="qr")), ""),
        (_malformed(lambda m: m["network"]["layers"][0].pop()), ""),
        (_malformed(lambda m: m["network"]["layers"].pop()), ""),
        (_malformed(lambda m: m.update(theta=[1.0])), ""),
        # a dnqr model file as written before dnqr became a column layout
        (_malformed(lambda m: m.update(mode="dnqr")), "refit"),
        (_malformed(lambda m: m.update(network=None)), "refit"),
        (_malformed(lambda m: m["network"].update(
            widths=[3, 3, 1], layers=[[0.1] * 12, [0.2] * 4])), ""),
        (_malformed(lambda m: m.update(theta="abc")), ""),
        (_malformed(lambda m: m["columns"]["x"].pop()), ""),
        (_malformed(lambda m: m.update(scaling={
            "x_low": [0.0], "x_span": [1.0],
            "z_low": [0.0, 0.0], "z_span": [1.0, 1.0]})), ""),
        # a zero-width hidden layer would make the network a constant
        (_malformed(lambda m: m["network"].update(
            widths=[2, 0, 1], layers=[[], [0.25]])), "width"),
        # an x-only model file as written before the network carried
        # the intercept
        (_malformed(lambda m: m.update(
            z_dim=0, network=None,
            columns={"y": "y", "x": ["x1", "x2"], "z": []})), "refit"),
        # numbers model_to_dict never writes: null (NaN) weights and
        # scaling, a zero span, fractional counts and tau outside (0, 1)
        (_malformed(lambda m: m["network"]["layers"][0].__setitem__(
            0, None)), "layer 0 holds a null"),
        (_malformed(lambda m: m["theta"].__setitem__(0, None)),
         "theta holds a null"),
        (_malformed(lambda m: m.update(scaling={
            "x_low": [0.0, None], "x_span": [1.0, 1.0],
            "z_low": [0.0, 0.0], "z_span": [1.0, 1.0]})), "scaling x_low"),
        (_malformed(lambda m: m.update(scaling={
            "x_low": [0.0, 0.0], "x_span": [0.0, 1.0],
            "z_low": [0.0, 0.0], "z_span": [1.0, 1.0]})), "spans"),
        (_malformed(lambda m: m.update(x_dim=2.7)), "x_dim"),
        (_malformed(lambda m: m["network"].update(
            widths=[2, 2.9, 1], layers=[[0.1] * 6, [0.2] * 3])), "integer"),
        (_malformed(lambda m: m.update(tau=7)), "tau"),
        (_malformed(lambda m: m["columns"]["z"].__setitem__(0, "x1")),
         "['x1'] given more than one role"),
    ], ids=["list", "only-version", "no-network", "unknown-mode",
            "short-layer", "missing-layer", "short-theta", "dnqr-theta",
            "missing-network", "wide-input", "text-theta", "short-columns",
            "short-scaling", "zero-hidden-width", "x-only-without-network",
            "null-weight", "null-theta", "null-scaling", "zero-span",
            "fractional-x-dim", "fractional-width", "tau-outside",
            "column-two-roles"])
    def test_malformed_model_is_data_error(self, payload, says, train_csv,
                                           tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["predict", "--model", str(model), "--data", train_csv,
                     "--out", str(tmp_path / "pred.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:data:") and err.count("\n") == 1
        assert says in err


class TestSimulateCommand:
    def test_writes_three_report_files(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--case", "1", "--n", "200", "--tau",
                     "0.5", "--replicates", "2", "--methods", "dplqr",
                     "--seed", "0", "--depth", "2", "--width", "4",
                     "--epochs", "20", "--minibatch", "64",
                     "--patience", "20", "--no-ci",
                     "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("report.csv", "report.txt", "report.json"):
            assert (out_dir / name).exists(), name
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["command"] == "simulate"
        assert payload["schema_version"] == 2
        assert payload["q_requested"] == 2
        assert "dplqr" in payload["methods"]
        # the report as it stands, with only the header added
        report_fields = {f.name for f in fields(experiment.ExperimentReport)}
        assert payload.keys() == report_fields | {"schema_version", "command"}

    def test_report_json_records_spec_and_grid(self, tmp_path):
        # neither report.csv nor report.txt shows sigma_x_terms or the
        # epochs, so report.json must
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--case", "4", "--n", "200",
                     "--replicates", "1", "--methods", "lqr", "--seed",
                     "8250", "--sigma-x-terms", "2x1", "--epochs", "15",
                     "--no-ci", "--out-dir", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["spec"] == {"case": 4, "n": 200, "tau": 0.5,
                                   "sigma_x_terms": "2x1"}
        # --epochs replaces the grid; its other fields are the scenario's
        # first candidate's
        assert payload["grid"] == [{
            "depth": 2, "width": 16, "epochs": 15, "minibatch": 64,
            "early_stop_patience": 50, "learning_rate": 0.01}]

    def test_byte_identical_reruns(self, tmp_path):
        dirs = (tmp_path / "run1", tmp_path / "run2")
        for out_dir in dirs:
            code = main(["simulate", "--case", "4", "--n", "200", "--tau",
                         "0.5", "--replicates", "2", "--methods",
                         "dplqr,lqr", "--seed", "11", "--depth", "2",
                         "--width", "4", "--epochs", "15", "--minibatch",
                         "64", "--patience", "15", "--no-ci",
                         "--out-dir", str(out_dir)])
            assert code == 0
        for name in ("report.csv", "report.txt", "report.json"):
            assert (dirs[0] / name).read_bytes() == \
                   (dirs[1] / name).read_bytes(), name

    def test_bad_level_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--case", "1", "--n", "100",
                     "--replicates", "2", "--epochs", "3", "--level", "1.5",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: level")

    def test_bad_level_without_intervals_exits_before_training(
            self, tmp_path, capsys, monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(experiment, "_run_replicate", no_replicate)
        code = main(["simulate", "--no-ci", "--level", "1.5",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: level")
        assert not (tmp_path / "report.json").exists()

    def test_minibatch_beyond_tuning_split_is_config_error(self, tmp_path,
                                                           capsys):
        # n=100: each replicate trains on 80 rows and tunes on 64 of them,
        # of which each epoch of a candidate trains on 52
        code = main(["simulate", "--case", "1", "--n", "100",
                     "--replicates", "2", "--minibatch", "70", "--lr",
                     "0.01,0.02", "--epochs", "3", "--no-ci",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: minibatch 70 exceeds the 52"
                              " training rows of 64 in the tuning split")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_no_workers_is_config_error(self, workers, tmp_path, capsys,
                                        monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(experiment, "_run_replicate", no_replicate)
        code = main(["simulate", "--no-ci", "--workers", workers,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error:config: need at least one worker, got {workers}")
        assert not (tmp_path / "report.json").exists()

    def test_empty_method_is_config_error(self, tmp_path, capsys,
                                          monkeypatch):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(experiment, "_run_replicate", no_replicate)
        code = main(["simulate", "--no-ci", "--methods", "dplqr,",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error:config: --methods has an empty name")

    def test_switches_from_config_file(self, tmp_path):
        # --config's no_ci and align_m write what --no-ci --align-m write
        argv = ["simulate", "--case", "4", "--n", "100", "--replicates", "2",
                "--methods", "dplqr,lqr", "--seed", "5", "--epochs", "5",
                "--minibatch", "32", "--patience", "5"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no_ci": True, "align_m": True}),
                          encoding="utf-8")
        flags, keys = tmp_path / "flags", tmp_path / "keys"
        assert main(argv + ["--no-ci", "--align-m",
                            "--out-dir", str(flags)]) == 0
        assert main(argv + ["--config", str(config),
                            "--out-dir", str(keys)]) == 0
        assert (flags / "report.json").read_bytes() == \
            (keys / "report.json").read_bytes()
        assert json.loads((keys / "report.json").read_text())["align_m"]

    def test_aborted_study_leaves_no_out_dir(self, tmp_path, capsys):
        # every replicate fails to train: the study aborts, and the
        # directory, made only for a finished report, is never made
        out_dir = tmp_path / "sim"
        with pytest.warns(UserWarning, match="replicate 0 failed"):
            code = main(["simulate", "--case", "1", "--n", "100",
                         "--replicates", "1", "--methods", "dplqr",
                         "--seed", "8282", "--lr", "1e300", "--epochs", "2",
                         "--patience", "2", "--minibatch", "16", "--no-ci",
                         "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error:training: 1 of 1 replicates failed; aborting\n")
        assert not out_dir.exists()

    def test_settings_are_checked_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return optimizer.tuning_plan(*args)
        monkeypatch.setattr(experiment, "tuning_plan", counted)
        assert main(["simulate", "--case", "1", "--n", "100",
                     "--replicates", "1", "--methods", "dplqr", "--seed",
                     "8283", "--epochs", "2", "--patience", "2",
                     "--minibatch", "16", "--no-ci",
                     "--out-dir", str(tmp_path / "sim")]) == 0
        assert len(calls) == 1

    def test_invalid_case_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--case", "9", "--n", "200",
                     "--replicates", "1", "--out-dir", str(tmp_path)])
        assert code != 0
        assert capsys.readouterr().err.startswith("error:config:")


class TestTuneCommand:
    def test_prints_chosen_config(self, train_csv, tmp_path, capsys):
        out = tmp_path / "chosen.json"
        code = main(["tune", "--data", train_csv, "--y", "y", "--x",
                     "x1,x2", "--z", "z1,z2", "--tau", "0.5", "--seed",
                     "2", "--depth", "2", "--width", "4", "--epochs",
                     "30", "--minibatch", "64", "--patience", "30",
                     "--lr", "0.001,0.02", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        printed = json.loads(stdout)
        assert printed["lr"] in (0.001, 0.02)
        assert printed == dict(depth=2, width=4, lr=printed["lr"],
                               epochs=30, minibatch=64, patience=30,
                               mode="dplqr")
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_single_candidate(self, train_csv, tmp_path, capsys):
        code = main(["tune", "--data", train_csv, "--y", "y", "--x",
                     "x1,x2", "--z", "z1,z2", "--depth", "2", "--width",
                     "4", "--epochs", "10", "--minibatch", "64",
                     "--patience", "10", "--lr", "0.01", "--mode", "lqr"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["lr"] == 0.01 and printed["mode"] == "lqr"
        assert printed["depth"] == 2  # as given; lqr trains one layer

    def test_chosen_config_makes_fit_train_the_same_model(self, train_csv,
                                                           tmp_path):
        # tune --out, then fit --config with that file, gives the model
        # fit gives with the grid: both tune on the same stream. At seed
        # 1 a tune on make_rng(1) itself picks another learning rate.
        # The file names the method asked for, so a dnqr tune, which
        # trains dplqr on every covariate, makes fit --config fit dnqr.
        common = ["--data", train_csv, "--y", "y", "--x", "x1,x2", "--z",
                  "z1,z2", "--seed", "1"]
        for mode in ("dplqr", "dnqr"):
            grid = ["--depth", "2", "--width", "4", "--epochs", "30",
                    "--minibatch", "32", "--patience", "10",
                    "--lr", "0.003,0.01,0.03", "--mode", mode]
            chosen = tmp_path / f"chosen-{mode}.json"
            assert main(["tune", *common, *grid, "--out", str(chosen)]) == 0
            assert json.loads(chosen.read_text())["mode"] == mode
            a, b = tmp_path / f"a-{mode}.json", tmp_path / f"b-{mode}.json"
            assert main(["fit", *common, "--config", str(chosen),
                         "--out", str(a)]) == 0
            assert main(["fit", *common, *grid, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
            assert json.loads(a.read_text())["columns"]["x"] == (
                [] if mode == "dnqr" else ["x1", "x2"])

        roles = ColumnRoles("y", ["x1", "x2"], ["z1", "z2"])
        raw = load_csv(train_csv, roles)
        data = apply_scaling(raw, compute_scaling(raw))
        configs = [TrainConfig(depth=2, width=4, epochs=30, minibatch=32,
                               early_stop_patience=10, learning_rate=lr)
                   for lr in (0.003, 0.01, 0.03)]
        own_stream = tune(configs, data, 0.5, make_rng(1)).learning_rate
        chosen = json.loads((tmp_path / "chosen-dplqr.json").read_text())
        assert own_stream != chosen["lr"]

    def test_lone_candidate_minibatch_beyond_rows_is_config_error(
            self, tmp_path, capsys):
        # tune writes no config that fit on the same 300 rows rejects
        data = str(_write_training_csv(tmp_path / "train.csv", n=300))
        out = tmp_path / "chosen.json"
        code = main(["tune", "--data", data, "--y", "y", "--x", "x1,x2",
                     "--z", "z1,z2", "--minibatch", "400",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error:config: minibatch 400 exceeds the 240 training rows of"
            " 300\n")
        assert not out.exists()

    def test_bad_tau_is_config_error(self, train_csv, capsys):
        code = main(["tune", "--data", train_csv, "--y", "y", "--x",
                     "x1,x2", "--z", "z1,z2", "--tau", "1.5", "--width",
                     "4,8", "--epochs", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config: tau")

    def test_level_flag_is_not_a_tune_flag(self, train_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--data", train_csv, "--y", "y", "--x", "x1,x2",
                  "--z", "z1,z2", "--level", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --level 7" in capsys.readouterr().err

    def test_config_keys_of_fit_only_are_rejected(self, train_csv,
                                                  tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"report": str(tmp_path / "r.json"),
                                      "level": 9}), encoding="utf-8")
        code = main(["tune", "--data", train_csv, "--y", "y", "--x",
                     "x1,x2", "--z", "z1,z2", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: unknown key(s)")
        assert "'level'" in err and "'report'" in err


class TestRequiredFlags:
    @pytest.mark.parametrize("command, flag", [
        ("fit", "--data"), ("tune", "--y"), ("simulate", "--out-dir")],
        ids=["fit-data", "tune-y", "simulate-out-dir"])
    def test_missing_flag_exits_before_any_work(self, command, flag,
                                                train_csv, tmp_path, capsys,
                                                monkeypatch):
        # nothing is read, trained or written
        def no_work(*args, **kwargs):
            raise AssertionError("the command did its work")
        for module, name in ((cli, "load_csv"), (cli, "tune"),
                             (cli, "fit_model"),
                             (experiment, "_run_replicate")):
            monkeypatch.setattr(module, name, no_work)
        monkeypatch.chdir(tmp_path)
        if command == "simulate":
            argv = ["simulate", "--case", "1", "--n", "100", "--no-ci",
                    "--out-dir", str(tmp_path / "new")]
        else:
            argv = [command] + _fit_args(train_csv, tmp_path)[1:]
        i = argv.index(flag)
        assert main(argv[:i] + argv[i + 2:]) == 2
        assert capsys.readouterr().err == f"error:config: {flag} is required\n"
        assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]


class TestModelFileCompat:
    def test_cli_model_loads_through_library(self, train_csv, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(_fit_args(train_csv, tmp_path)) == 0
        fitted, roles, scaling = load_model(str(model_path))
        assert roles.y == "y"
        assert fitted.theta_hat.shape == (2,)
        assert fitted.network.widths[0] == 2
        assert scaling is not None  # scaling is on by default


class TestFileErrors:
    """A file that cannot be opened, read or written, and a model or
    config file that is not UTF-8, exit 2 with one error:data: line."""

    def _error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def _model(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_model_payload()), encoding="utf-8")
        return str(model)

    def test_predict_out_in_missing_directory(self, train_csv, tmp_path,
                                              capsys, monkeypatch):
        # the output path is checked before the model or the data is read
        def no_read(*args, **kwargs):
            raise AssertionError("an input file was read")
        monkeypatch.setattr(cli, "load_model", no_read)
        monkeypatch.setattr(cli, "load_csv", no_read)
        out = str(tmp_path / "absent" / "pred.csv")
        err = self._error(["predict", "--model", self._model(tmp_path),
                           "--data", train_csv, "--out", out], capsys)
        assert err == f"error:data: {out}: No such file or directory\n"

    def test_model_naming_a_directory(self, train_csv, tmp_path, capsys):
        err = self._error(["predict", "--model", str(tmp_path), "--data",
                           train_csv, "--out", str(tmp_path / "p.csv")],
                          capsys)
        assert err == f"error:data: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_data_naming_a_directory(self, command, tmp_path, capsys):
        if command == "fit":
            argv = _fit_args(str(tmp_path), tmp_path)
        else:
            argv = ["predict", "--model", self._model(tmp_path), "--data",
                    str(tmp_path), "--out", str(tmp_path / "p.csv")]
        err = self._error(argv, capsys)
        assert err == f"error:data: {tmp_path}: Is a directory\n"

    def _no_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a network was trained")
        monkeypatch.setattr(optimizer, "train_stack", no_training)

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--out"), ("fit", "--report"), ("tune", "--out")],
        ids=["fit-out", "fit-report", "tune-out"])
    def test_fit_out_in_missing_directory(self, command, flag, train_csv,
                                          tmp_path, capsys, monkeypatch):
        # output paths are checked before the data is read: nothing
        # trains, not even tune's two candidates, and no file is written
        self._no_training(monkeypatch)
        out = str(tmp_path / "absent" / "out.json")
        argv = [command] + _fit_args(train_csv, tmp_path, lr="0.01,0.02")[1:]
        argv += [flag, out]  # the last --out wins
        err = self._error(argv, capsys)
        assert err == f"error:data: {out}: No such file or directory\n"
        assert not (tmp_path / "model.json").exists()

    def test_fit_report_naming_a_directory(self, train_csv, tmp_path,
                                           capsys, monkeypatch):
        self._no_training(monkeypatch)
        err = self._error(_fit_args(train_csv, tmp_path,
                                    report=str(tmp_path)), capsys)
        assert err == f"error:data: {tmp_path}: Is a directory\n"
        assert not (tmp_path / "model.json").exists()

    def _no_reading(self, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("an input file was read")
        monkeypatch.setattr(cli, "load_model", no_read)
        monkeypatch.setattr(cli, "load_csv", no_read)

    @pytest.mark.parametrize("first, second", [
        ("out", "report"), ("data", "report")])
    def test_fit_paths_naming_one_file(self, first, second, train_csv,
                                       tmp_path, capsys, monkeypatch):
        # the same file spelled two ways: nothing is read or written
        self._no_reading(monkeypatch)
        given = {"data": train_csv, "out": str(tmp_path / "same.json")}
        path = given.get(first, str(tmp_path / "same.json"))
        given[first] = path
        given[second] = os.path.join(os.path.dirname(path), ".",
                                     os.path.basename(path))
        argv = _fit_args(given["data"], tmp_path)
        argv[argv.index("--out") + 1] = given["out"]
        argv += ["--report", given["report"]]
        original = Path(train_csv).read_bytes()
        err = self._error(argv, capsys)
        assert err == (f"error:config: --{first} and --{second} name the"
                       f" same file: {given[second]}\n")
        assert os.listdir(tmp_path) == ["train.csv"]
        assert Path(train_csv).read_bytes() == original

    @pytest.mark.parametrize("named", ["data", "config"])
    def test_tune_out_naming_an_input(self, named, train_csv, tmp_path,
                                      capsys, monkeypatch):
        self._no_reading(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text('{"epochs": 5}', encoding="utf-8")
        inputs = {"data": train_csv, "config": str(config)}
        original = Path(inputs[named]).read_bytes()
        argv = ["tune"] + _fit_args(train_csv, tmp_path)[1:-2]
        err = self._error(argv + ["--config", str(config),
                                  "--out", inputs[named]], capsys)
        assert err == (f"error:config: --{named} and --out name the same"
                       f" file: {inputs[named]}\n")
        assert Path(inputs[named]).read_bytes() == original

    @pytest.mark.parametrize("named", ["model", "data"])
    def test_predict_out_naming_an_input(self, named, train_csv, tmp_path,
                                         capsys, monkeypatch):
        model = self._model(tmp_path)
        self._no_reading(monkeypatch)
        inputs = {"model": model, "data": train_csv}
        original = Path(inputs[named]).read_bytes()
        err = self._error(["predict", "--model", model, "--data", train_csv,
                           "--out", inputs[named]], capsys)
        assert err == (f"error:config: --{named} and --out name the same"
                       f" file: {inputs[named]}\n")
        assert Path(inputs[named]).read_bytes() == original

    def test_config_naming_a_directory(self, train_csv, tmp_path, capsys):
        err = self._error(_fit_args(train_csv, tmp_path,
                                    config=str(tmp_path)), capsys)
        assert err == f"error:data: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_simulate_out_dir_naming_a_file(self, given, tmp_path, capsys,
                                            monkeypatch):
        # a file in the way is refused before the replicates run, so a
        # study that trains trains nothing
        self._no_training(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = ["simulate", "--case", "1", "--n", "100", "--replicates",
                "1", "--methods", "dplqr", "--epochs", "2", "--patience",
                "2", "--minibatch", "32", "--no-ci"]
        if given == "flag":
            argv += ["--out-dir", str(taken)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"out_dir": str(taken)}),
                              encoding="utf-8")
            argv += ["--config", str(config)]
        err = self._error(argv, capsys)
        assert err == f"error:data: {taken}: File exists\n"

    @pytest.mark.parametrize("flags, message", [
        (["--level", "1.5"], "level must be in (0, 1), got 1.5"),
        (["--workers", "0"], "need at least one worker, got 0"),
        (["--replicates", "0"], "need at least one replicate, got 0"),
        (["--methods", "bogus"], "unknown method 'bogus'; choose from"
                                 " ('dplqr', 'lqr', 'dnqr')"),
        (["--minibatch", "70", "--lr", "0.01,0.02"],
         "minibatch 70 exceeds the 52 training rows of 64 in the tuning"
         " split of 80"),
        (["--minibatch", "65"], "minibatch 65 exceeds the 64 training rows"
                                " of 80"),
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--methods", "dplqr,dplqr"],
         "duplicate method in ['dplqr', 'dplqr']"),
        (["--methods="], "no methods requested")],
        ids=["level", "workers", "replicates", "methods", "minibatch",
             "untuned-minibatch", "seed", "duplicate-method", "no-methods"])
    def test_simulate_settings_checked_before_out_dir(
            self, flags, message, tmp_path, capsys, monkeypatch):
        # n=100: each replicate trains on 80 rows and tunes on 64 of them;
        # each epoch trains on 80% of either; a grid of one candidate is
        # not tuned
        self._no_training(monkeypatch)
        out_dir = tmp_path / "new"
        argv = ["simulate", "--case", "1", "--n", "100", "--replicates",
                "1", "--epochs", "3", "--no-ci", "--out-dir", str(out_dir)]
        err = self._error(argv + flags, capsys)
        assert err == f"error:config: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_failed_write_names_no_file(self, train_csv, tmp_path, capsys):
        err = self._error(["predict", "--model", self._model(tmp_path),
                           "--data", train_csv, "--out", "/dev/full"],
                          capsys)
        assert err == "error:data: No space left on device\n"

    def test_model_not_utf8(self, train_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes('{"mode": "caf\u00e9"}'.encode("latin-1"))
        err = self._error(["predict", "--model", str(model), "--data",
                           train_csv, "--out", str(tmp_path / "p.csv")],
                          capsys)
        assert err.startswith(f"error:data: {model} is not UTF-8 text")

    def test_config_not_utf8(self, train_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes('{"mode": "caf\u00e9"}'.encode("latin-1"))
        err = self._error(_fit_args(train_csv, tmp_path,
                                    config=str(config)), capsys)
        assert err.startswith(f"error:data: {config} is not UTF-8 text")
