"""End-to-end tests of the command line interface.

Commands run in-process through dplqr.cli.main so exit codes and output
files can be checked without shelling out.
"""

import json

import numpy as np
import pytest

from dplqr import cli
from dplqr import experiment
from dplqr.cli import _OPTIONS, build_parser, main
from dplqr.model import Dataset
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
        assert payload["history"]["stopped_epoch"] >= 1
        assert payload["schema_version"] == 2
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
        assert "mode" not in payload["config"]
        assert "seed" not in payload["config"]
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["network"]["widths"] == widths
        assert model["schema_version"] == 1

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
        monkeypatch.setattr("dplqr.model.fit_stack", no_fit)
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

    def test_minibatch_beyond_tuning_split_is_config_error(self, tmp_path,
                                                           capsys):
        # 300 rows: one lr fits on all of them, two tune on 240
        data = str(_write_training_csv(tmp_path / "train.csv", n=300))
        assert main(_fit_args(data, tmp_path, minibatch=250)) == 0
        code = main(_fit_args(data, tmp_path, minibatch=250,
                              lr="0.01,0.02"))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error:config: minibatch 250 exceeds the tuning split")

    def test_non_utf8_data_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("y,x1,x2,z1,z2\n1,2,3,4,caf\u00e9\n"
                         .encode("latin-1"))
        code = main(_fit_args(str(path), tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:data:")

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(_fit_args(str(tmp_path / "absent.csv"), tmp_path))
        assert code != 0
        assert capsys.readouterr().err.startswith("error:data:")

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
          "4,8", "--depth", "2,3"], [(2, 1)] * 3),
    ], ids=["x-only", "lqr"])
    def test_grid_of_one_network_trains_it_once(self, train_csv, tmp_path,
                                                monkeypatch, roles, widths):
        # every grid point trains the same network, so tuning fits none;
        # the final fit and the lqr fit's two projections remain
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

    def test_every_setting_flag_has_one_declaration(self):
        # the flags that are not settings: the config file itself and
        # simulate's two switches, which --config does not set
        not_settings = {"command", "func", "config", "no_ci", "align_m"}
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
        (_malformed(lambda m: m.update(mode="dnqr")), ""),
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
    ], ids=["list", "only-version", "no-network", "unknown-mode",
            "short-layer", "missing-layer", "short-theta", "dnqr-theta",
            "missing-network", "wide-input", "text-theta", "short-columns",
            "short-scaling", "zero-hidden-width", "x-only-without-network",
            "null-weight", "null-theta", "null-scaling", "zero-span",
            "fractional-x-dim", "fractional-width", "tau-outside"])
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
        assert payload["schema_version"] == 1
        assert payload["q_requested"] == 2
        assert "dplqr" in payload["methods"]

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
        # n=100: each replicate trains on 80 rows and tunes on 64 of them
        code = main(["simulate", "--case", "1", "--n", "100",
                     "--replicates", "2", "--minibatch", "70", "--lr",
                     "0.01,0.02", "--epochs", "3", "--no-ci",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error:config: minibatch 70 exceeds the tuning split")
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
        printed = json.loads(capsys.readouterr().out)
        assert printed["lr"] in (0.001, 0.02)
        assert printed == dict(depth=2, width=4, lr=printed["lr"],
                               epochs=30, minibatch=64, patience=30,
                               mode="dplqr")
        saved = json.loads(out.read_text())
        assert saved == printed

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
        grid = ["--depth", "2", "--width", "4", "--epochs", "30",
                "--minibatch", "32", "--patience", "10",
                "--lr", "0.003,0.01,0.03"]
        common = ["--data", train_csv, "--y", "y", "--x", "x1,x2", "--z",
                  "z1,z2", "--seed", "1"]
        chosen = tmp_path / "chosen.json"
        assert main(["tune", *common, *grid, "--out", str(chosen)]) == 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", *common, "--config", str(chosen),
                     "--out", str(a)]) == 0
        assert main(["fit", *common, *grid, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        roles = ColumnRoles("y", ["x1", "x2"], ["z1", "z2"])
        raw = load_csv(train_csv, roles)
        data = apply_scaling(raw, compute_scaling(raw))
        configs = [TrainConfig(depth=2, width=4, epochs=30, minibatch=32,
                               early_stop_patience=10, learning_rate=lr)
                   for lr in (0.003, 0.01, 0.03)]
        own_stream = tune(configs, data, 0.5, make_rng(1)).learning_rate
        assert own_stream != json.loads(chosen.read_text())["lr"]


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


class TestModelFileCompat:
    def test_cli_model_loads_through_library(self, train_csv, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(_fit_args(train_csv, tmp_path)) == 0
        fitted, roles, scaling = load_model(str(model_path))
        assert roles.y == "y"
        assert fitted.x_dim == 2 and fitted.z_dim == 2
        assert scaling is not None  # scaling is on by default
