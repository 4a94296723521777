"""
The paper's simulation table
============================

Runs the replicated study the paper reports: cases 1-6 x n in {500,
2000} x tau in {0.5, 0.2}, for dplqr, lqr and dnqr, Q replicates per
cell at one master seed, with Wald intervals wherever a method has a
linear part. Each (cell, method) is one `run_experiment` call on its
own; a replicate's method streams do not depend on which other methods
run, so the numbers are those of one call with all three methods, and
the wall time and failures are the method's own.

The JSON record holds, per cell and method: bias, sd, the mean standard
error of the intervals, coverage, theta rmse, rmse_m, mspe, failures
and wall time; per case, tau and method, sd(n=2000) / sd(n=500) for
each coefficient (root-n normality gives 0.5); and a run record (git
sha, a hash of the package source, numpy, BLAS and its thread count,
nproc).

    python demos/paper_table.py --out STUDY_1.json
    python demos/paper_table.py --cases 1 --ns 500 --taus 0.5 \
        --replicates 2 --out /tmp/one_cell.json

OPENBLAS_NUM_THREADS is 1 unless it is set. The full table at Q=100
takes about 15 minutes with 2 workers on 2 cores. No test runs it.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from dplqr import DgpSpec, DplqrError, run_experiment  # noqa: E402
from dplqr.modelio import _jsonable  # noqa: E402
from dplqr.normal import ndtri  # noqa: E402

CASES = (1, 2, 3, 4, 5, 6)
NS = (500, 2000)
TAUS = (0.5, 0.2)
METHODS = ("dplqr", "lqr", "dnqr")
MASTER_SEED = 8300
LEVEL = 0.95
WORKERS = 2


def _numbers(text, parse):
    return tuple(parse(v) for v in text.split(","))


def method_record(report, method):
    """One method's row of a cell, from a report of that method alone."""
    summary = report.methods.get(method)
    record = {"failures": len(report.failures),
              "failure_reasons": [f["error"] for f in report.failures]}
    if summary is None:
        return record
    rows = [row for row in report.replicates if row.method == method]
    thetas = np.array([row.theta_hat for row in rows])
    spans = [np.diff(row.intervals, axis=1)[:, 0] for row in rows
             if row.intervals is not None]
    z = float(ndtri(0.5 + report.level / 2.0))
    linear = thetas.shape[1] > 0
    record.update(
        replicates=summary.replicates,
        bias=summary.bias, sd=summary.sd,
        se=np.mean(spans, axis=0) / (2 * z) if spans else None,
        coverage=summary.coverage,
        theta_rmse=(np.sqrt(np.mean((thetas - report.theta_true) ** 2,
                                    axis=0)) if linear else None),
        rmse_m=summary.mean_rmse_m, mspe=summary.mean_mspe)
    return record


def sd_ratios(cells):
    """sd(n=2000) / sd(n=500) per coefficient, per case, tau and method."""
    sds = {(c["case"], c["n"], c["tau"], m): r.get("sd")
           for c in cells for m, r in c["methods"].items()}
    ratios = []
    for (case, n, tau, method), sd in sds.items():
        small = sds.get((case, 500, tau, method))
        if n == 2000 and sd is not None and small is not None:
            ratios.append({"case": case, "tau": tau, "method": method,
                           "sd_ratio": np.asarray(sd) / np.asarray(small)})
    return ratios


def _git(*args):
    done = subprocess.run(["git", *args], cwd=Path(__file__).parent,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_record():
    """What ran the study: code, numpy, BLAS and the host."""
    import dplqr

    src = Path(dplqr.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # no dicts mode, or no blas entry
        blas = None
    changed = _git("status", "--porcelain", "--", str(src))
    return {
        "git_head": _git("rev-parse", "HEAD"),
        "src_changed_from_head": None if changed is None else changed != "",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "workers": WORKERS,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--out", required=True, help="STUDY JSON path")
    parser.add_argument("--cases", default=",".join(map(str, CASES)))
    parser.add_argument("--ns", default=",".join(map(str, NS)))
    parser.add_argument("--taus", default=",".join(map(str, TAUS)))
    parser.add_argument("--replicates", type=int, default=100)
    args = parser.parse_args(argv)

    cells, start = [], time.perf_counter()
    for case in _numbers(args.cases, int):
        for n in _numbers(args.ns, int):
            for tau in _numbers(args.taus, float):
                spec = DgpSpec(case=case, n=n, tau=tau)
                cell = {"case": case, "n": n, "tau": tau, "methods": {}}
                for method in METHODS:
                    began = time.perf_counter()
                    try:
                        report = run_experiment(
                            spec, args.replicates, (method,), MASTER_SEED,
                            level=LEVEL, workers=WORKERS)
                        record = method_record(report, method)
                    except DplqrError as exc:  # more than 10% failed
                        record = {"error": f"{type(exc).__name__}: {exc}"}
                    record["wall_s"] = time.perf_counter() - began
                    cell["methods"][method] = record
                    print(f"case {case} n={n} tau={tau:g} {method}:"
                          f" {record['wall_s']:.1f} s", flush=True)
                cells.append(cell)

    study = {"master_seed": MASTER_SEED, "replicates": args.replicates,
             "level": LEVEL, "run": run_record(),
             "wall_s": time.perf_counter() - start, "cells": cells,
             "sd_ratios": sd_ratios(cells)}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(_jsonable(study), handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
