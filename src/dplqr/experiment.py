"""Replicated benchmark experiments.

Each replicate draws a fresh dataset from a DgpSpec, splits it 80/20
into train/test, fits every requested method on the training part (the
network methods dplqr and dnqr after tuning; lqr is an exact solve that
takes the grid's first entry), and scores:

  - theta_hat and (optionally) Wald interval coverage of the true
    coefficients,
  - relative mean squared error of the fitted z-function against the
    true one on the test covariates,
  - mean squared prediction error on the test rows.

Aggregation over replicates gives per-method bias, SD, coverage, mean
RMSE, and mean MSPE. Everything is a pure function of (spec, settings,
master seed): replicate r uses the substream child_rng(master_seed, r),
and methods inside a replicate use streams split from it in a fixed
order, so adding or dropping a method never perturbs the others.
"""

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .dgp import (Z_DIM, DgpSpec, _base_case, generate, mspe, rmse_m, true_m,
                  true_theta)
from .errors import ConfigError, DplqrError, TrainingError
from .inference import covariance, validate_level
from .model import Dataset, fit, fit_lqr, m_values, predict_batch
from .optimizer import (TrainConfig, _holdout_split, _split_rows, tune,
                        tuning_plan)
from .rng import _check_int, _check_seed, child_rng, split

# the methods a study compares, in run order, which is also the order of
# a replicate's per-method streams
METHODS = ("dplqr", "lqr", "dnqr")

# selected hyperparameters per (base case, sample size); cases 4-6 share
# the rows of their base case 1-3. Learning rate has two candidate values
# that the tuning step chooses between.
_SCENARIOS = {
    (1, 500): dict(depth=2, width=16, epochs=500, minibatch=64,
                   early_stop_patience=50, lrs=(0.01, 0.02)),
    (1, 2000): dict(depth=3, width=32, epochs=500, minibatch=64,
                    early_stop_patience=50, lrs=(0.01, 0.02)),
    (2, 500): dict(depth=3, width=10, epochs=500, minibatch=64,
                   early_stop_patience=50, lrs=(0.009, 0.01)),
    (2, 2000): dict(depth=3, width=20, epochs=500, minibatch=64,
                    early_stop_patience=50, lrs=(0.009, 0.02)),
    (3, 500): dict(depth=2, width=20, epochs=600, minibatch=128,
                   early_stop_patience=100, lrs=(0.01, 0.02)),
    (3, 2000): dict(depth=3, width=32, epochs=600, minibatch=128,
                    early_stop_patience=100, lrs=(0.01, 0.02)),
}


def scenario_grid(case, n):
    """Tuning grid for a benchmark scenario (one config per learning rate)."""
    row = dict(_SCENARIOS[(_base_case(case), 500 if n <= 1000 else 2000)])
    lrs = row.pop("lrs")
    return [TrainConfig(**row, learning_rate=lr) for lr in lrs]


@dataclass
class ReplicateResult:
    """Metrics of one method on one replicate."""

    replicate: int
    method: str
    theta_hat: np.ndarray
    intervals: np.ndarray      # (p, 2) or None when intervals were off
    covered: np.ndarray        # (p,) bools or None
    rmse_m: float              # None for a fit with no linear part (dnqr)
    mspe: float


@dataclass
class MethodSummary:
    """One method's aggregates over its successful replicates."""

    bias: np.ndarray
    sd: np.ndarray
    coverage: np.ndarray
    mean_rmse_m: float
    mean_mspe: float
    replicates: int


@dataclass
class ExperimentReport:
    """Everything run_experiment measured and, once each, the settings that
    made it; methods files each MethodSummary under its method's name."""

    spec: DgpSpec
    grid: list
    theta_true: np.ndarray
    q_requested: int
    failures: int
    master_seed: int
    level: float
    with_ci: bool
    align_m: bool
    methods: dict
    replicates: list


def _method_order(methods):
    if isinstance(methods, str):
        raise ConfigError(f"methods must be a collection of names, got the"
                          f" string {methods!r}; choose from {METHODS}")
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"duplicate method in {methods}")
    return tuple(m for m in METHODS if m in methods)


def _method_data(method, data):
    """`data` in the layout `method` fits: dnqr's has no x block, and its
    z block is [x, z]."""
    if method == "dnqr":
        return Dataset(data.y, None, np.hstack([data.x, data.z]))
    return data


def _run_replicate(spec, r, methods, master_seed, grid, with_ci, level,
                   align_m):
    rng = child_rng(master_seed, r)
    data = generate(spec, rng)
    train_idx, test_idx = _holdout_split(spec.n, rng)
    train, test = data.subset(train_idx), data.subset(test_idx)
    theta_star = true_theta(spec)
    m_star = true_m(spec, test.z)

    out = []
    streams = dict(zip(METHODS, split(rng, len(METHODS))))
    for method in methods:
        tune_rng, fit_rng, cov_rng = split(streams[method], 3)
        fit_train = _method_data(method, train)
        if method == "lqr":  # the exact fit: nothing to tune or train
            best, fitted = grid[0], fit_lqr(fit_train, spec.tau)
        else:
            best = tune(grid, fit_train, spec.tau, tune_rng)
            fitted = fit(fit_train, spec.tau, best, fit_rng)

        intervals = covered = None
        if with_ci and fit_train.p:
            est = covariance(fitted, fit_train, best, cov_rng, level=level)
            intervals = est.intervals
            covered = ((intervals[:, 0] <= theta_star)
                       & (theta_star <= intervals[:, 1]))

        rmse = None
        if fit_train.p:
            m_hat = m_values(fitted, test.z)
            if align_m:
                m_hat = m_hat + float(np.mean(m_star - m_hat))
            rmse = rmse_m(m_hat, m_star)

        fit_test = _method_data(method, test)
        y_hat = predict_batch(fitted, fit_test.x, fit_test.z)
        out.append(ReplicateResult(r, method, fitted.theta_hat, intervals,
                                   covered, rmse, mspe(y_hat, test.y)))
    return out


def _summarize(rows, theta_star):
    thetas = np.array([row.theta_hat for row in rows])
    if thetas.shape[1] == 0:
        bias = sd = coverage = None
    else:
        bias = thetas.mean(axis=0) - theta_star
        sd = np.std(thetas, axis=0, ddof=1) if len(rows) > 1 else None
        hits = [row.covered for row in rows if row.covered is not None]
        coverage = np.mean(hits, axis=0) if hits else None
    rmses = [row.rmse_m for row in rows if row.rmse_m is not None]
    mean_rmse = float(np.mean(rmses)) if rmses else None
    mean_mspe = float(np.mean([row.mspe for row in rows]))
    return MethodSummary(bias, sd, coverage, mean_rmse, mean_mspe, len(rows))


def run_experiment(spec, q, methods=("dplqr",), master_seed=0, *,
                   grid=None, with_ci=True, level=0.95, align_m=False,
                   workers=1):
    """Run q replicates of `spec` and aggregate per-method metrics.

    grid defaults to scenario_grid(spec.case, spec.n); pass a list of
    TrainConfig to override (a grid of one distinct candidate skips
    tuning). Before any replicate runs, the settings are checked: q and
    workers, the methods, the level, the grid, which may not be empty
    and which `tuning_plan` checks once against the 80% of spec.n rows a
    replicate trains on (lqr alone tunes nothing), and the master seed.
    A settings error, like a ConfigError from any replicate, is raised
    as it is. Replicates that fail to train are dropped with a warning;
    more than 10% failures aborts. The ExperimentReport holds `spec`
    itself and the grid as a list.
    workers > 1 runs replicates in min(workers, q, usable CPUs)
    processes; aggregation is in replicate order, so results are identical.
    """
    _check_int(q, "q")
    _check_int(workers, "workers")
    if q < 1:
        raise ConfigError(f"need at least one replicate, got {q}")
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    methods = _method_order(methods)
    if not methods:
        raise ConfigError("no methods requested")
    level = validate_level(level)
    if grid is None:
        grid = scenario_grid(spec.case, spec.n)
    grid = list(grid)
    if not grid:
        raise ConfigError("tuning grid is empty")
    if any(method != "lqr" for method in methods):
        # the row rule does not depend on the input width
        tuning_plan(grid, _split_rows(spec.n), Z_DIM)
    _check_seed(master_seed)

    args = [(spec, r, methods, master_seed, grid, with_ci, level, align_m)
            for r in range(q)]
    rows, failures = [], 0
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=min(workers, q, cpus)) as pool:
            outcomes = list(pool.map(_try_replicate, args))
    else:
        outcomes = [_try_replicate(a) for a in args]
    for r, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            warnings.warn(f"replicate {r} failed: {outcome}")
            failures += 1
        else:
            rows.extend(outcome)
    if failures > 0.1 * q:
        raise TrainingError(
            f"{failures} of {q} replicates failed; aborting")

    theta_star = true_theta(spec)
    summaries = {}
    for method in methods:
        method_rows = [row for row in rows if row.method == method]
        if method_rows:
            summaries[method] = _summarize(method_rows, theta_star)
    return ExperimentReport(
        spec=spec, grid=grid, theta_true=theta_star, q_requested=q,
        failures=failures, master_seed=master_seed, level=level,
        with_ci=with_ci, align_m=align_m, methods=summaries,
        replicates=rows)


def _try_replicate(args):
    """A replicate's rows, or why it failed; a settings error is raised,
    since it holds for every replicate."""
    try:
        return _run_replicate(*args)
    except ConfigError:
        raise
    except DplqrError as exc:
        return f"{type(exc).__name__}: {exc}"


def _rows_for_csv(report):
    rows = []
    for method, summary in report.methods.items():
        p = 0 if summary.bias is None else len(summary.bias)
        for k in range(p):
            rows.append((method, "bias", k + 1, summary.bias[k]))
            if summary.sd is not None:
                rows.append((method, "sd", k + 1, summary.sd[k]))
            if summary.coverage is not None:
                rows.append((method, "coverage", k + 1, summary.coverage[k]))
        if summary.mean_rmse_m is not None:
            rows.append((method, "rmse_m", "", summary.mean_rmse_m))
        rows.append((method, "mspe", "", summary.mean_mspe))
        rows.append((method, "replicates", "", summary.replicates))
    return rows


def report_to_csv(report, path):
    """One row per method x metric (x coefficient where applicable)."""
    spec = report.spec
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case", "n", "tau", "method", "metric",
                         "coefficient", "value"])
        for method, metric, coef, value in _rows_for_csv(report):
            formatted = str(value) if metric == "replicates" else repr(float(value))
            writer.writerow([spec.case, spec.n, repr(spec.tau),
                             method, metric, coef, formatted])


def report_to_text(report):
    """Formatted per-method summary table, one line per method: the
    `report_to_csv` values, with "." where the CSV has no row."""
    spec = report.spec
    header = (f"case {spec.case}  n={spec.n}  tau={spec.tau:g}  "
              f"Q={report.q_requested}  failures={report.failures}  "
              f"seed={report.master_seed}")
    # column -> the CSV (metric, coefficient) it shows
    cells = {"bias1": ("bias", 1), "sd1": ("sd", 1),
             "cover1": ("coverage", 1), "bias2": ("bias", 2),
             "sd2": ("sd", 2), "cover2": ("coverage", 2),
             "rmse_m": ("rmse_m", ""), "mspe": ("mspe", "")}
    values = {row[:3]: row[3] for row in _rows_for_csv(report)}
    lines = [header, "  ".join(f"{c:>8}" for c in ["method", *cells])]
    for method in report.methods:
        parts = [f"{method:>8}"]
        for metric, k in cells.values():
            value = values.get((method, metric, k))
            parts.append("       ." if value is None else f"{value:8.4f}")
        lines.append("  ".join(parts))
    return "\n".join(lines) + "\n"
