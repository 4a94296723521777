"""dplqr benchmark: one run of one workload, metrics as JSON on the last line.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--trace 0 measures the end_to_end metrics named in BENCHMARK.json with
tracing off; --trace 1 measures its per_layer metrics by running each
operation once untraced and once traced. Exits 1 if a correctness check
fails and 2 if there is no dplqr source to benchmark. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import describe
from tracing import ATTRS, END, NAME, OP, PARENT, START, LayerTotals, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
DEFAULT_SEED = 0
HELD_OUT_SEED = 2026
SETUP_REPEATS = 3
BLAS_FIELDS = ("name", "version", "openblas configuration")
IMPORT_REPEATS = 3
SPAN_COLUMNS = ["id", "name", "parent", "op", "start_us", "end_us", "self_us",
                "attrs"]
SUBPROCESS_TIMEOUT_S = 150
# A fit that stops learning leaves theta near 0, an error of about 1.0
# per coefficient; working fits here stay near 0.15.
THETA_RMSE_LIMIT = 0.5


class RunError(Exception):
    """The run could not be set up; no result is printed."""


class Op:
    """One timed operation: its index, wall seconds, output or error."""

    def __init__(self, i, seconds, output, error):
        self.i, self.seconds, self.output, self.error = i, seconds, output, error


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED};"
                             f" held-out check seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_setup(workload, seed, inputs_dir, env):
    """Wall seconds of one fresh-process set-up."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed),
         str(inputs_dir)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunError(f"set-up failed: {proc.stderr.strip()[-800:]}")
    return elapsed


def digest(directory):
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode() + path.read_bytes())
    return sha.hexdigest()


def fresh_import_s(env):
    """Seconds to `import dplqr.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import dplqr.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return float(proc.stdout)


def timed_op(workload, i, in_process, failures):
    start = time.perf_counter()
    try:
        output, error = workload.run_op(i, in_process), None
    except failures as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Op(i, time.perf_counter() - start, output, error)


def measure(workload, seconds, in_process, failures):
    """Closed loop, one client: operations back to back for `seconds`."""
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(timed_op(workload, len(ops), in_process, failures))
    return ops


def measure_pairs(workload, seconds, failures, tracer):
    """Each operation run untraced and traced, for `seconds` in all.

    The order within a pair alternates, so slow drift of the machine
    falls on both sides of the tracing overhead.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        i = len(plain)
        tracer.op = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with patched(tracer):
                    traced.append(timed_op(workload, i, True, failures))
            else:
                plain.append(timed_op(workload, i, True, failures))
    return plain, traced


def theta_rmse(workload, ops):
    errors = workload.theta_errors([op.output for op in ops if op.output is not None])
    if not errors:
        return math.nan
    flat = [float(e) for err in errors for e in err]
    return math.sqrt(sum(e * e for e in flat) / len(flat))


def peak_rss_mb():
    """Peak resident memory of this process or its largest child, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(setup_times, ops):
    ok = [op.seconds for op in ops if op.error is None]
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(ok) if ok else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(totals, base, replay, import_s, rmse):
    fw, bw = "network.forward_batch", "network.backward_batch"
    adam, tj = "optimizer.adam_step", "optimizer.train_joint"
    calls, self_s, total_s, attr = (totals.calls, totals.self_s,
                                    totals.total_s, totals.attr)
    base_wall = sum(op.seconds for op in base)
    traced_wall = sum(op.seconds for op in replay)
    return {
        f"{fw}.calls": calls[fw],
        f"{fw}.self_s": self_s[fw],
        f"{fw}.rows_per_call": ratio(attr(fw, "rows"), calls[fw]),
        f"{fw}.gflop": attr(fw, "flop") / 1e9,
        f"{fw}.gflop_per_s": ratio(attr(fw, "flop") / 1e9, self_s[fw]),
        f"{bw}.calls": calls[bw],
        f"{bw}.self_s": self_s[bw],
        f"{bw}.gflop": attr(bw, "flop") / 1e9,
        f"{bw}.gflop_per_s": ratio(attr(bw, "flop") / 1e9, self_s[bw]),
        f"{adam}.calls": calls[adam],
        f"{adam}.self_s": self_s[adam],
        f"{adam}.us_per_call": ratio(self_s[adam] * 1e6, calls[adam]),
        f"{tj}.calls": calls[tj],
        f"{tj}.self_s": self_s[tj],
        f"{tj}.epochs": attr(tj, "epochs"),
        f"{tj}.wasted_epoch_frac": ratio(attr(tj, "wasted"), attr(tj, "epochs")),
        "optimizer.epoch_batches.self_s": self_s["optimizer.epoch_batches"],
        "optimizer.tune.calls": calls["optimizer.tune"],
        "optimizer.tune.s": total_s["optimizer.tune"],
        "optimizer.tune.candidates": attr("optimizer.tune", "candidates"),
        "quantile_loss.mean_check_loss.calls": calls["quantile_loss.mean_check_loss"],
        "quantile_loss.mean_check_loss.self_s": self_s["quantile_loss.mean_check_loss"],
        "model.fit.calls": calls["model.fit"],
        "model.fit.s": total_s["model.fit"],
        "model.predict_batch.rows": attr("model.predict_batch", "rows"),
        "model.predict_batch.s": total_s["model.predict_batch"],
        "inference.covariance.s": total_s["inference.covariance"],
        "inference.fit_projection.calls": calls["inference.fit_projection"],
        "inference.fit_projection.s": total_s["inference.fit_projection"],
        "inference.kde_at_zero.s": total_s["inference.kde_at_zero"],
        "experiment.run_experiment.s": total_s["experiment.run_experiment"],
        "dgp.generate.s": total_s["dgp.generate"],
        "modelio.load_csv.s": total_s["modelio.load_csv"],
        "modelio.load_csv.rows_per_s": ratio(attr("modelio.load_csv", "rows"),
                                             total_s["modelio.load_csv"]),
        "modelio.load_model.s": total_s["modelio.load_model"],
        "cli.import_s": import_s,
        "cli.main.self_s": self_s["cli.main"],
        "trace.overhead_frac": ratio(traced_wall - base_wall, base_wall),
        "adam_steps_per_s": ratio(calls[adam], base_wall),
        "theta_rmse": rmse,
        "fail_frac": ratio(sum(op.error is not None for op in base), len(base)),
    }


def write_spans(path, seed, spans, selfs, origin):
    """JSON lines: a header naming the columns, then one array per span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"seed": seed, "columns": SPAN_COLUMNS}) + "\n")
        for i, (span, own) in enumerate(zip(spans, selfs)):
            handle.write(json.dumps(
                [i, span[NAME], span[PARENT], span[OP],
                 round((span[START] - origin) * 1e6, 1),
                 round((span[END] - origin) * 1e6, 1), round(own * 1e6, 1),
                 span[ATTRS]]) + "\n")


def git_state():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, check=True, timeout=30).stdout
        return {"sha": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def cpu_info():
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            info[key.strip()] = value.strip()
    return info


def run_record(seed):
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: {f: deps.get(k, {}).get(f) for f in BLAS_FIELDS}
                 for k in ("blas", "lapack")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def statistics_of(ops):
    """Median, tail percentile, count and rate of the successful operations."""
    ok = [op.seconds for op in ops if op.error is None]
    if not ok:
        return None
    wall = sum(op.seconds for op in ops)
    return dict(describe(ok), ops_per_min=60.0 * len(ok) / wall)


def mismatches(workload, ops, replay):
    """Traced runs must reproduce the untraced outputs byte for byte."""
    found = []
    for op, again in zip(ops, replay):
        if (op.error is None) != (again.error is None) or (
                op.output is not None and workload.fingerprint(op.output)
                != workload.fingerprint(again.output)):
            found.append(f"operation {op.i}: traced output differs from untraced")
        if again.output is not None:
            found += workload.problems(again.output)
    return found


def run(args, declared):
    # Imported here: numpy must not load before the thread variables are set.
    from workloads import FAILURES, WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        raise RunError(f"unknown workload {args.workload!r};"
                       f" choose from {sorted(WORKLOADS)}")
    work = OUT_DIR / args.workload
    inputs_dir = work / "inputs"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    env = child_env()
    problems, details = [], {}
    try:
        setup_times, digests = [], set()
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            setup_times.append(run_setup(args.workload, args.seed, inputs_dir, env))
            digests.add(digest(inputs_dir))
        if len(digests) > 1:
            problems.append("repeated set-ups wrote different inputs")
        workload = WORKLOADS[args.workload](args.seed, inputs_dir)
        workload.start()

        if args.trace == 0:
            ops = measure(workload, args.seconds, False, FAILURES)
        else:
            tracer = Tracer()
            origin = time.perf_counter()
            ops, replay = measure_pairs(workload, args.seconds, FAILURES, tracer)
            problems += mismatches(workload, ops, replay)
        for op in ops:
            if op.output is not None:
                problems += workload.problems(op.output)
        if all(op.error is not None for op in ops):
            problems.append("no operation succeeded")
        rmse = theta_rmse(workload, ops)
        if not rmse < THETA_RMSE_LIMIT:
            problems.append(f"theta_rmse {rmse} is not below {THETA_RMSE_LIMIT}")

        if args.trace == 0:
            metrics = end_to_end(setup_times, ops)
            details["setup_s_samples"] = setup_times
            details["op_s"] = statistics_of(ops)
        else:
            totals = LayerTotals(tracer.spans)
            import_s = statistics.median(
                fresh_import_s(env) for _ in range(IMPORT_REPEATS))
            metrics = per_layer(totals, ops, replay, import_s, rmse)
            write_spans(work / "spans.jsonl", args.seed, tracer.spans,
                        totals.selfs, origin)
            details["spans"] = len(tracer.spans)
            details["traced_ops_s"] = [op.seconds for op in replay]
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))}"
                           " are computed or declared but not both")
    details["ops"] = [{"i": op.i, "seconds": op.seconds, "error": op.error}
                      for op in ops]
    return metrics, ops, problems, details


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "dplqr" / "__init__.py").is_file():
        print(f"perfbench: no dplqr source at {ROOT / 'src' / 'dplqr'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    declared = {m["name"]: m["unit"] for m in section}

    try:
        metrics, ops, problems, details = run(args, declared)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = run_record(args.seed)
    failed = sum(op.error is not None for op in ops)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    path = OUT_DIR / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                "record": record, "problems": problems,
                                "details": details, **result}, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f" seconds={args.seconds:g}: {len(ops)} operations, {failed} failed")
    for name, unit in declared.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    if details.get("op_s"):
        print(f"  op_s detail: {json.dumps(details['op_s'])}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  record: {json.dumps(record)}")
    print(f"  written: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
