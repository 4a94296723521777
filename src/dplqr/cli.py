"""Command line interface.

Subcommands:

  fit       train a model on a CSV file, write model + report JSON
  predict   apply a saved model to a CSV file, write predictions CSV
  simulate  run a replicated benchmark experiment, write report files
  tune      pick the best of a hyperparameter grid, print the winner

Every command is deterministic given its inputs and --seed. Flags
override matching keys of an optional JSON config file (--config).
Failures exit nonzero with a single stderr line of the form
``error:<category>: <message>``.
"""

import argparse
import errno
import itertools
import os
import sys
from dataclasses import replace

from .dgp import DgpSpec
from .errors import ConfigError, DataError, DplqrError
from .experiment import (METHODS, report_to_csv, report_to_text,
                         run_experiment, scenario_grid)
from .inference import KDE_MIN_RESIDUALS, covariance, validate_level
from .model import fit as fit_model
from .model import fit_lqr, predict_batch
from .modelio import (ColumnRoles, _jsonable, apply_scaling, compute_scaling,
                      json_text, load_csv, load_model, read_json, save_model,
                      write_json)
from .network import PASS_ROWS
from .optimizer import TrainConfig, tune
from .quantile_loss import validate_tau
from .rng import make_rng, split


def _columns(text, flag):
    """The comma-separated names given to --flag; none when it is unset or
    blank, and an empty name among others is a ConfigError."""
    if text is None or text.strip() == "":
        return []
    names = [c.strip() for c in text.split(",")]
    if "" in names:
        raise ConfigError(f"--{flag} has an empty name: {text!r}")
    return names


def _list(text, parse):
    """The comma-separated values of a grid setting, each read by `parse`
    (int or float)."""
    try:
        return [parse(v) for v in str(text).split(",")]
    except ValueError:
        noun = "integers" if parse is int else "numbers"
        raise ConfigError(f"expected comma-separated {noun}, got {text!r}")


# The JSON types a --config value may take, with how to name them; bool
# is a subclass of int, so true/false count only where bool is listed.
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_TEXT = ((str,), "a string")
_FLAG = ((bool,), "true or false")
_INT_LIST = ((int, str), "an integer or a comma-separated string of them")
_NUMBER_LIST = ((int, float, str),
                "a number or a comma-separated string of them")
# Every setting of fit, tune and simulate: (JSON kind, default, help).
# The kind also gives the flag: an int for _INT, a float for _NUMBER, a
# switch for _FLAG (--no-KEY when the default is true, --KEY when it is
# false) and text for the rest. A command accepts, in --config, the keys
# of its own settings.
_OPTIONS = {
    "data": (_TEXT, None, "input CSV path"),
    "y": (_TEXT, None, "response column name"),
    "x": (_TEXT, "", "linear covariate columns, comma-separated"),
    "z": (_TEXT, "", "network covariate columns, comma-separated"),
    "tau": (_NUMBER, 0.5, "quantile level in (0, 1)"),
    "mode": (_TEXT, "dplqr", "one of " + ", ".join(METHODS)),
    "seed": (_INT, 0, "random seed"),
    "level": (_NUMBER, 0.95, "confidence level"),
    "scale": (_FLAG, True, "skip min-max scaling of covariates"),
    "out": (_TEXT, None, "model (fit) or chosen config (tune) JSON path"),
    "report": (_TEXT, None, "report JSON output path"),
    "case": (_INT, 1, "benchmark case, 1..6"),
    "n": (_INT, 500, "rows per replicate"),
    "replicates": (_INT, 160, "number of replicates"),
    "methods": (_TEXT, "dplqr", "subset of " + ",".join(METHODS)),
    "workers": (_INT, 1, "worker processes"),
    "sigma_x_terms": (_TEXT, "x1+x2", "x sum of cases 4-6: x1+x2 or 2x1"),
    "out_dir": (_TEXT, None, "directory for the report files"),
    "no_ci": (_FLAG, False, "skip confidence intervals and coverage"),
    "align_m": (_FLAG, False, "remove the mean level gap before rmse_m"),
    "depth": (_INT_LIST, None, "network depth(s), comma-separated"),
    "width": (_INT_LIST, None, "hidden width(s), comma-separated"),
    "lr": (_NUMBER_LIST, None, "learning rate(s), comma-separated"),
    "epochs": (_INT, None, "training epochs"),
    "minibatch": (_INT, None, "minibatch size"),
    "patience": (_INT, None, "early-stop patience in epochs"),
}


def _check_kind(path, key, value):
    """A --config value must have its key's JSON type; null means unset."""
    types, name = _OPTIONS[key][0]
    if value is None:
        return
    if (isinstance(value, bool) != (bool in types)
            or not isinstance(value, types)):
        raise ConfigError(f"{key} in {path} must be {name}, got {value!r}")


def _merge_config(args):
    """Fill unset args from the --config JSON file, then apply defaults.

    The settings are the parsed flags that _OPTIONS lists.
    """
    keys = vars(args).keys() & _OPTIONS.keys()
    if args.config:
        file_config = read_json(args.config)
        if not isinstance(file_config, dict):
            raise DataError(f"{args.config} must hold a JSON object")
        unknown = file_config.keys() - keys
        if unknown:
            raise ConfigError(
                f"unknown key(s) in {args.config}: {sorted(unknown)}")
        for key, value in file_config.items():
            _check_kind(args.config, key, value)
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key in keys:
        if getattr(args, key) is None:
            setattr(args, key, _OPTIONS[key][1])
    return args


# The TrainConfig field each grid flag sets. A grid is the cross
# product of their values; only depth, width and lr take lists.
_GRID_FIELDS = {"depth": "depth", "width": "width", "lr": "learning_rate",
                "epochs": "epochs", "minibatch": "minibatch",
                "patience": "early_stop_patience"}


def _build_grid(args, base):
    """One config per point of the depth x width x lr cross product.

    Each grid flag left unset takes its value from `base`. The first bad
    entry raises its ConfigError as it is made.
    """
    axes = []
    for flag, field in _GRID_FIELDS.items():
        value = getattr(args, flag)
        parse = float if flag == "lr" else int
        axes.append([getattr(base, field)] if value is None
                    else _list(value, parse))
    return [replace(base, **dict(zip(_GRID_FIELDS.values(), point)))
            for point in itertools.product(*axes)]


def _flag_settings(config):
    """A config's grid settings under their flag names."""
    return {flag: getattr(config, field)
            for flag, field in _GRID_FIELDS.items()}


def _check_output(path):
    """Raise, without opening `path`, the OSError that opening it for
    writing would raise when its directory is missing or it is itself a
    directory."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or os.curdir):
        code = errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check_distinct(args, flags):
    """No two of these path flags may name the same file, so no output
    overwrites an input or the other output."""
    named = {}  # real path -> the first flag naming it
    for flag in flags:
        path = getattr(args, flag, None)
        if not path:
            continue
        first = named.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ConfigError(
                f"--{first} and --{flag} name the same file: {path}")


def _fit_setup(args, out_required):
    """The shared start of fit and tune: merge --config, check the flags,
    build the grid and the tune, fit and covariance rngs, check the
    paths (no two the same file, each output writable), fit's --level
    and --tau, and only then load the data."""
    _merge_config(args)
    for name in ("out",) * out_required + ("data", "y"):
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required")
    if args.mode not in METHODS:
        raise ConfigError(
            f"mode must be one of {METHODS}, got {args.mode!r}")
    x, z = _columns(args.x, "x"), _columns(args.z, "z")
    # dnqr, a network on every covariate, is a dplqr fit with no x columns
    dnqr = args.mode == "dnqr"
    roles = ColumnRoles(args.y, [] if dnqr else x, x + z if dnqr else z)
    grid = _build_grid(args, TrainConfig())
    streams = split(make_rng(args.seed), 3)
    _check_distinct(args, ("config", "data", "out", "report"))
    for path in (args.out, getattr(args, "report", None)):
        if path:
            _check_output(path)
    if "level" in vars(args):  # fit's; tune has none
        args.level = validate_level(args.level)
    validate_tau(args.tau)
    raw = load_csv(args.data, roles)
    scaling = compute_scaling(raw) if args.scale else None
    return apply_scaling(raw, scaling), roles, scaling, grid, streams


def cmd_fit(args):
    data, roles, scaling, grid, streams = _fit_setup(args, out_required=True)
    tune_rng, fit_rng, cov_rng = streams
    with_ci = data.p >= 1 and data.q >= 1
    if with_ci and data.n < KDE_MIN_RESIDUALS:
        raise DataError(f"Wald intervals need at least {KDE_MIN_RESIDUALS}"
                        f" rows, got {data.n}")
    if args.mode == "lqr":  # the exact fit: nothing to tune or train
        best, fitted = grid[0], fit_lqr(data, args.tau)
    else:  # the winner of a grid is its fit; a lone config is fitted
        best, fitted = tune(grid, data, args.tau, tune_rng)
        if fitted is None:
            fitted = fit_model(data, args.tau, best, fit_rng)

    estimate = None
    if with_ci:
        estimate = covariance(fitted, data, best, cov_rng,
                              level=args.level)

    save_model(args.out, fitted, roles, scaling)
    if args.report:
        write_json(args.report, _jsonable({
            "schema_version": 3, "command": "fit",
            "n": data.n, "p": data.p, "q": data.q,
            "tau": args.tau, "mode": args.mode, "seed": args.seed,
            "level": args.level, "scaled": args.scale,
            "columns": roles, "config": _flag_settings(best),
            "widths": fitted.network.widths, "grid_size": len(grid),
            "theta_hat": fitted.theta_hat, "covariance": estimate,
            "history": fitted.history,
        }))

    print(f"fit: mode={args.mode} tau={args.tau:g} n={data.n}"
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
    _check_distinct(args, ("model", "data", "out"))
    _check_output(args.out)
    fitted, roles, scaling = load_model(args.model)
    data = load_csv(args.data, roles, require_y=False)
    data = apply_scaling(data, scaling)
    predictions = predict_batch(fitted, data.x, data.z)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("prediction\n")
        for start in range(0, len(predictions), PASS_ROWS):
            block = predictions[start:start + PASS_ROWS].tolist()
            handle.write("".join(f"{v!r}\n" for v in block))
    print(f"wrote {len(predictions)} prediction(s) to {args.out}")
    return 0


def cmd_simulate(args):
    _merge_config(args)
    if args.out_dir is None:
        raise ConfigError("--out-dir is required")
    spec = DgpSpec(case=args.case, n=args.n, tau=args.tau,
                   sigma_x_terms=args.sigma_x_terms)
    methods = _columns(args.methods, "methods")
    grid = scenario_grid(spec.case, spec.n)
    if any(getattr(args, flag) is not None for flag in _GRID_FIELDS):
        grid = _build_grid(args, grid[0])

    # refuse a file in the way now; make the directory only for a report
    if os.path.lexists(args.out_dir) and not os.path.isdir(args.out_dir):
        raise OSError(errno.EEXIST, os.strerror(errno.EEXIST), args.out_dir)
    report = run_experiment(
        spec, args.replicates, methods, args.seed, grid=grid,
        with_ci=not args.no_ci, level=args.level, align_m=args.align_m,
        workers=args.workers)

    os.makedirs(args.out_dir, exist_ok=True)
    report_to_csv(report, os.path.join(args.out_dir, "report.csv"))
    text = report_to_text(report)
    with open(os.path.join(args.out_dir, "report.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text)
    payload = _jsonable(report)
    payload.update(schema_version=3, command="simulate")
    write_json(os.path.join(args.out_dir, "report.json"), payload)
    print(text, end="")
    print(f"wrote report.csv, report.txt, report.json to {args.out_dir}")
    return 0


def cmd_tune(args):
    data, _, _, grid, streams = _fit_setup(args, out_required=False)
    # lqr tunes nothing; the rest tune on the stream fit tunes on
    best = (grid[0] if args.mode == "lqr"
            else tune(grid, data, args.tau, streams[0])[0])
    # the method asked for, which a dnqr tune trains as dplqr
    chosen = dict(_flag_settings(best), mode=args.mode)
    print(json_text(chosen), end="")
    if args.out:
        write_json(args.out, chosen)
    return 0


_FIT_KEYS = ("data", "y", "x", "z", "tau", "mode", "seed", "scale")
# Each command: (handler, help, settings). A command with settings also
# takes the grid settings and --config; predict takes its three paths.
_COMMANDS = {
    "fit": (cmd_fit, "train a model on a CSV file",
            _FIT_KEYS + ("level", "out", "report")),
    "predict": (cmd_predict, "apply a saved model to a CSV file", None),
    "simulate": (cmd_simulate, "run a replicated benchmark experiment",
                 ("case", "n", "tau", "replicates", "methods", "seed",
                  "level", "workers", "out_dir", "no_ci", "align_m",
                  "sigma_x_terms")),
    "tune": (cmd_tune, "pick the best of a hyperparameter grid by each"
                       " candidate's validation loss",
             _FIT_KEYS + ("out",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dplqr",
        description="Partially linear quantile regression with network"
                    " nonparametric components.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        if keys is None:
            for path in ("model", "data", "out"):
                sub.add_argument(f"--{path}", required=True)
            continue
        for key in keys + tuple(_GRID_FIELDS):
            kind, default, key_help = _OPTIONS[key]
            flag = key.replace("_", "-")
            if kind is _FLAG:
                flag = "no-" + flag if default else flag
                how = {"action": "store_false" if default else "store_true"}
            else:
                how = {"type": {_INT: int, _NUMBER: float}.get(kind, str)}
            sub.add_argument(f"--{flag}", dest=key, default=None,
                             help=key_help, **how)
        sub.add_argument("--config", help="JSON config file; flags win")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DplqrError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
    except OSError as exc:
        # a file that cannot be opened, read or written; a failed write
        # names no file
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error:data: {where}{exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
