"""Command line interface.

Subcommands:

  fit       train a model on a CSV file, write model + report JSON
  predict   apply a saved model to a CSV file, write predictions CSV
  simulate  run a replicated benchmark experiment, write report files
  tune      hold-out selection over a hyperparameter grid, print winner

Every command is deterministic given its inputs and --seed. Flags
override matching keys of an optional JSON config file (--config).
Failures exit nonzero with a single stderr line of the form
``error:<category>: <message>``.
"""

import argparse
import itertools
import json
import os
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np

from .dgp import DgpSpec
from .errors import (ConfigError, DataError, DplqrError, SingularMatrixError,
                     TrainingError)
from .experiment import (report_to_csv, report_to_text, run_experiment,
                         scenario_grid)
from .inference import covariance
from .model import fit as fit_model
from .model import make_mode_config, predict_batch
from .modelio import (ColumnRoles, apply_scaling, compute_scaling, load_csv,
                      load_model, save_model, write_json)
from .optimizer import MODES, TrainConfig, tune
from .rng import make_rng, split

_CATEGORIES = (
    (ConfigError, "config"),
    (DataError, "data"),
    (TrainingError, "training"),
    (SingularMatrixError, "singular"),
    (DplqrError, "internal"),
)


def _category(exc):
    for cls, name in _CATEGORIES:
        if isinstance(exc, cls):
            return name
    return "internal"


def _jsonable(value):
    """Make a value JSON-safe: dataclasses to dicts of their fields, arrays
    and tuples to lists, numpy scalars to Python ones, non-finite floats to
    None."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _columns(text):
    if text is None or text.strip() == "":
        return []
    return [c.strip() for c in text.split(",")]


def _floats(text):
    try:
        return [float(v) for v in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _ints(text):
    try:
        return [int(v) for v in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


# The JSON types a --config value may take, with how to name them; bool
# is a subclass of int, so true/false count only where bool is listed.
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_TEXT = ((str,), "a string")
_FLAG = ((bool,), "true or false")
_INT_LIST = ((int, str), "an integer or a comma-separated string of them")
_NUMBER_LIST = ((int, float, str),
                "a number or a comma-separated string of them")
_KINDS = {
    "data": _TEXT, "y": _TEXT, "x": _TEXT, "z": _TEXT, "tau": _NUMBER,
    "mode": _TEXT, "seed": _INT, "level": _NUMBER, "scale": _FLAG,
    "out": _TEXT, "report": _TEXT, "case": _INT, "n": _INT,
    "replicates": _INT, "methods": _TEXT, "workers": _INT,
    "sigma_x_terms": _TEXT, "out_dir": _TEXT, "depth": _INT_LIST,
    "width": _INT_LIST, "lr": _NUMBER_LIST, "epochs": _INT,
    "minibatch": _INT, "patience": _INT,
}


def _check_kind(path, key, value):
    """A --config value must have its key's JSON type; null means unset."""
    types, name = _KINDS[key]
    if value is None:
        return
    if (isinstance(value, bool) != (bool in types)
            or not isinstance(value, types)):
        raise ConfigError(f"{key} in {path} must be {name}, got {value!r}")


def _merge_config(args, keys):
    """Fill unset args from the --config JSON file, then apply defaults."""
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise DataError(f"no such config file: {args.config}")
        with open(args.config, encoding="utf-8") as handle:
            try:
                file_config = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DataError(f"{args.config} is not valid JSON: {exc}")
        if not isinstance(file_config, dict):
            raise DataError(f"{args.config} must hold a JSON object")
        unknown = set(file_config) - set(keys)
        if unknown:
            raise ConfigError(
                f"unknown key(s) in {args.config}: {sorted(unknown)}")
        for key, value in file_config.items():
            _check_kind(args.config, key, value)
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    for key, default in keys.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return args


_GRID_FLAGS = ("depth", "width", "lr", "epochs", "minibatch", "patience")

_FIT_DEFAULTS = {
    "data": None, "y": None, "x": "", "z": "", "tau": 0.5, "mode": "dplqr",
    "seed": 0, "level": 0.95, "scale": True, "out": None, "report": None,
    **dict.fromkeys(_GRID_FLAGS),
}


def _build_grid(args, base):
    """One config per point of the depth x width x lr cross product.

    Each grid flag left unset takes its value from `base`, and base.mode
    is applied to every entry (so "lqr" forces depth 1).
    """
    def flag(name, default):
        value = getattr(args, name)
        return default if value is None else value

    grid = [
        make_mode_config(base.mode, replace(
            base, depth=d, width=w, learning_rate=lr,
            epochs=flag("epochs", base.epochs),
            minibatch=flag("minibatch", base.minibatch),
            early_stop_patience=flag("patience", base.early_stop_patience)))
        for d, w, lr in itertools.product(
            _ints(flag("depth", base.depth)), _ints(flag("width", base.width)),
            _floats(flag("lr", base.learning_rate)))
    ]
    for config in grid:
        config.validate()
    return grid


def _fit_setup(args, out_required):
    """The shared start of fit and tune: merge --config, check the flags,
    load and scale the data, build the tuning grid."""
    _merge_config(args, _FIT_DEFAULTS)
    if args.no_scale:
        args.scale = False
    if out_required and args.out is None:
        raise ConfigError("--out is required")
    if args.mode not in MODES:
        raise ConfigError(f"--mode must be one of {MODES}, got {args.mode!r}")
    if args.data is None:
        raise ConfigError("--data is required")
    if args.y is None:
        raise ConfigError("--y is required")
    roles = ColumnRoles(args.y, _columns(args.x), _columns(args.z))
    raw = load_csv(args.data, roles)
    scaling = compute_scaling(raw) if args.scale else None
    grid = _build_grid(args, TrainConfig(seed=int(args.seed), mode=args.mode))
    return apply_scaling(raw, scaling), roles, scaling, grid


def cmd_fit(args):
    data, roles, scaling, grid = _fit_setup(args, out_required=True)
    rng = make_rng(int(args.seed))
    tune_rng, fit_rng, cov_rng = split(rng, 3)
    best = tune(grid, data, args.tau, tune_rng)
    fitted = fit_model(data, args.tau, best, fit_rng)

    estimate = None
    if fitted.mode != "dnqr" and data.p >= 1 and data.q >= 1:
        estimate = covariance(fitted, data, best, cov_rng,
                              level=float(args.level))

    save_model(args.out, fitted, roles, scaling)
    if args.report:
        report = _jsonable({
            "schema_version": 1, "command": "fit",
            "n": data.n, "p": data.p, "q": data.q,
            "tau": float(args.tau), "mode": fitted.mode,
            "level": float(args.level), "scaled": bool(args.scale),
            "columns": roles, "config": best, "grid_size": len(grid),
            "theta_hat": fitted.theta_hat, "covariance": estimate,
            "history": fitted.history,
        })
        # mode and level are reported once, at the top level
        del report["config"]["mode"]
        if estimate is not None:
            del report["covariance"]["level"]
        write_json(args.report, report)

    print(f"fit: mode={fitted.mode} tau={float(args.tau):g} n={data.n}"
          f" p={data.p} q={data.q}")
    for k, coef in enumerate(fitted.theta_hat):
        line = f"  theta[{k + 1}] = {coef: .6f}"
        if estimate is not None:
            lower, upper = estimate.intervals[k]
            line += f"  ({lower: .6f}, {upper: .6f})"
        print(line)
    print(f"wrote {args.out}" + (f" and {args.report}" if args.report else ""))
    return 0


def cmd_predict(args):
    fitted, roles, scaling = load_model(args.model)
    data = load_csv(args.data, roles, require_y=False, allow_empty=True)
    data = apply_scaling(data, scaling)
    if data.p != fitted.x_dim or data.q != fitted.z_dim:
        raise DataError(
            f"model expects p={fitted.x_dim}, q={fitted.z_dim} but data"
            f" has p={data.p}, q={data.q}")
    predictions = predict_batch(fitted, data.x, data.z)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("prediction\n")
        for value in predictions:
            handle.write(repr(float(value)) + "\n")
    print(f"wrote {len(predictions)} prediction(s) to {args.out}")
    return 0


_SIM_DEFAULTS = {
    "case": 1, "n": 500, "tau": 0.5, "replicates": 160, "methods": "dplqr",
    "seed": 0, "level": 0.95, "workers": 1, "sigma_x_terms": "x1+x2",
    "out_dir": None, **dict.fromkeys(_GRID_FLAGS),
}


def cmd_simulate(args):
    _merge_config(args, _SIM_DEFAULTS)
    if args.out_dir is None:
        raise ConfigError("--out-dir is required")
    spec = DgpSpec(case=int(args.case), n=int(args.n), tau=float(args.tau),
                   sigma_x_terms=args.sigma_x_terms)
    methods = _columns(args.methods)
    grid = scenario_grid(spec.case, spec.n, seed=int(args.seed))
    if any(getattr(args, name) is not None for name in _GRID_FLAGS):
        grid = _build_grid(args, grid[0])

    report = run_experiment(
        spec, int(args.replicates), methods, int(args.seed), grid=grid,
        with_ci=not args.no_ci, level=float(args.level),
        align_m=args.align_m, workers=int(args.workers))

    os.makedirs(args.out_dir, exist_ok=True)
    report_to_csv(report, os.path.join(args.out_dir, "report.csv"))
    text = report_to_text(report)
    with open(os.path.join(args.out_dir, "report.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text)
    payload = _jsonable(report)
    payload.update(schema_version=1, command="simulate",
                   replicate_results=payload.pop("replicates"))
    for summary in payload["methods"].values():
        del summary["method"]  # the key it is filed under
    write_json(os.path.join(args.out_dir, "report.json"), payload)
    print(text, end="")
    print(f"wrote report.csv, report.txt, report.json to {args.out_dir}")
    return 0


def cmd_tune(args):
    data, _, _, grid = _fit_setup(args, out_required=False)
    best = tune(grid, data, args.tau, make_rng(int(args.seed)))
    chosen = _jsonable(best)
    print(json.dumps(chosen, sort_keys=True, indent=2))
    if args.out:
        write_json(args.out, chosen)
    return 0


def _add_grid_flags(sub):
    sub.add_argument("--depth", help="network depth(s), comma-separated")
    sub.add_argument("--width", help="hidden width(s), comma-separated")
    sub.add_argument("--lr", help="learning rate(s), comma-separated")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--minibatch", type=int)
    sub.add_argument("--patience", type=int,
                     help="early-stop patience in epochs")


def _add_fit_like_flags(sub):
    sub.add_argument("--data", help="input CSV path")
    sub.add_argument("--y", help="response column name")
    sub.add_argument("--x", help="linear covariate columns, comma-separated")
    sub.add_argument("--z", help="network covariate columns, comma-separated")
    sub.add_argument("--tau", type=float)
    sub.add_argument("--mode", choices=MODES)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--level", type=float, help="confidence level")
    sub.add_argument("--no-scale", action="store_true",
                     help="skip min-max scaling of covariates")
    sub.add_argument("--config", help="JSON config file; flags override it")
    _add_grid_flags(sub)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dplqr",
        description="Partially linear quantile regression with network"
                    " nonparametric components.")
    commands = parser.add_subparsers(dest="command", required=True)

    fit_cmd = commands.add_parser("fit", help="train a model on a CSV file")
    _add_fit_like_flags(fit_cmd)
    fit_cmd.add_argument("--out", help="model JSON output path")
    fit_cmd.add_argument("--report", help="report JSON output path")
    fit_cmd.set_defaults(func=cmd_fit)

    predict_cmd = commands.add_parser(
        "predict", help="apply a saved model to a CSV file")
    predict_cmd.add_argument("--model", required=True)
    predict_cmd.add_argument("--data", required=True)
    predict_cmd.add_argument("--out", required=True)
    predict_cmd.set_defaults(func=cmd_predict)

    sim_cmd = commands.add_parser(
        "simulate", help="run a replicated benchmark experiment")
    sim_cmd.add_argument("--case", type=int)
    sim_cmd.add_argument("--n", type=int)
    sim_cmd.add_argument("--tau", type=float)
    sim_cmd.add_argument("--replicates", type=int)
    sim_cmd.add_argument("--methods",
                         help="comma-separated subset of " + ",".join(MODES))
    sim_cmd.add_argument("--seed", type=int)
    sim_cmd.add_argument("--level", type=float)
    sim_cmd.add_argument("--workers", type=int)
    sim_cmd.add_argument("--out-dir", dest="out_dir")
    sim_cmd.add_argument("--no-ci", action="store_true",
                         help="skip confidence intervals and coverage")
    sim_cmd.add_argument("--align-m", action="store_true",
                         help="remove the mean level gap before rmse_m")
    sim_cmd.add_argument("--sigma-x-terms", dest="sigma_x_terms",
                         choices=("x1+x2", "2x1"))
    sim_cmd.add_argument("--config", help="JSON config file; flags override")
    _add_grid_flags(sim_cmd)
    sim_cmd.set_defaults(func=cmd_simulate)

    tune_cmd = commands.add_parser(
        "tune", help="hold-out selection over a hyperparameter grid")
    _add_fit_like_flags(tune_cmd)
    tune_cmd.add_argument("--out", help="write the chosen config as JSON")
    tune_cmd.set_defaults(func=cmd_tune)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DplqrError as exc:
        print(f"error:{_category(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
