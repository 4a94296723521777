"""Compare the bytes two commits write for one fixed list of CLI commands.

Usage:
    python tools/bytecheck.py PARENT [CHANGE] [--keep DIR]

PARENT and CHANGE are git revisions; CHANGE defaults to the working
tree. Each revision's src/ is exported with `git archive` into a fresh
directory. The command list below then runs once against each source,
every command in a fresh `python -m dplqr.cli` process under
OPENBLAS_NUM_THREADS=1, in a run directory of its own with relative
paths only. Each command's stdout and stderr are kept as
<name>.stdout and <name>.stderr and its exit code in exits.txt, next to
the files the commands write. The script prints one line per file that
differs or exists on one side only and exits 1 if there is any, else
prints how many files matched and exits 0. --keep DIR, a directory
that does not exist yet, keeps both sources and runs there.

The data is case 1 of dplqr.dgp with 200 rows, drawn at DATA_SEED by
each side's own `generate`; the same seed is every command's --seed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_SEED = 8290
_Z = ",".join(f"z{k + 1}" for k in range(10))
_GENERATE = f"""\
import numpy as np
from dplqr import DgpSpec, generate, make_rng
data = generate(DgpSpec(case=1, n=200), make_rng({DATA_SEED}))
names = ["y", "x1", "x2"] + [f"z{{k + 1}}" for k in range(data.q)]
np.savetxt("data.csv", np.column_stack([data.y, data.x, data.z]),
           delimiter=",", header=",".join(names), comments="")
"""


def _train(command, *extra):
    """fit or tune on data.csv with short training."""
    return [command, "--data", "data.csv", "--y", "y", "--x", "x1,x2",
            "--z", _Z, "--seed", str(DATA_SEED), "--epochs", "5",
            "--patience", "5", "--minibatch", "32", *extra]


def _simulate(out_dir, *extra):
    """A two-replicate case-4 study of 200 rows with short training."""
    return ["simulate", "--case", "4", "--n", "200", "--replicates", "2",
            "--seed", str(DATA_SEED), "--epochs", "5", "--patience", "5",
            "--minibatch", "32", *extra, "--out-dir", out_dir]


# (name, exit code, arguments of dplqr); a command may read what an
# earlier one wrote
COMMANDS = [
    ("fit-dplqr", 0, _train("fit", "--out", "dplqr.json",
                            "--report", "dplqr-report.json")),
    ("fit-dplqr-grid", 0, _train("fit", "--lr", "0.01,0.02", "--out",
                                 "dplqr-grid.json", "--report",
                                 "dplqr-grid-report.json")),
    ("fit-lqr", 0, _train("fit", "--mode", "lqr", "--out", "lqr.json",
                          "--report", "lqr-report.json")),
    ("fit-lqr-grid", 0, _train("fit", "--mode", "lqr", "--lr", "0.01,0.02",
                               "--out", "lqr-grid.json", "--report",
                               "lqr-grid-report.json")),
    ("fit-dnqr", 0, _train("fit", "--mode", "dnqr", "--out", "dnqr.json",
                           "--report", "dnqr-report.json")),
    ("fit-dnqr-grid", 0, _train("fit", "--mode", "dnqr", "--lr",
                                "0.01,0.02", "--out", "dnqr-grid.json",
                                "--report", "dnqr-grid-report.json")),
    ("tune", 0, _train("tune", "--lr", "0.01,0.02", "--out", "tune.json")),
    ("predict-dplqr", 0, ["predict", "--model", "dplqr.json", "--data",
                          "data.csv", "--out", "dplqr-predict.csv"]),
    ("predict-lqr", 0, ["predict", "--model", "lqr.json", "--data",
                        "data.csv", "--out", "lqr-predict.csv"]),
    ("predict-dnqr", 0, ["predict", "--model", "dnqr.json", "--data",
                         "data.csv", "--out", "dnqr-predict.csv"]),
    ("simulate", 0, _simulate("simulate", "--methods", "dplqr,lqr,dnqr",
                              "--lr", "0.01,0.02")),
    ("simulate-dnqr", 0, _simulate("simulate-dnqr", "--methods", "dnqr",
                                   "--no-ci")),
    ("simulate-2x1", 0, _simulate("simulate-2x1", "--methods", "dplqr,lqr",
                                  "--sigma-x-terms", "2x1")),
    # lr 1e300 fails in each replicate and loses to lr 0.01
    ("simulate-workers", 0, _simulate("simulate-workers", "--methods",
                                      "dplqr", "--workers", "2", "--lr",
                                      "0.01,1e300", "--no-ci")),
    # each failing command prints one error line
    ("fit-diverged", 2, _train("fit", "--lr", "1e300,1e299",
                               "--out", "diverged.json")),
    ("simulate-aborted", 2, _simulate("aborted", "--methods", "dplqr",
                                      "--lr", "1e300", "--no-ci")),
    ("fit-bad-tau", 2, _train("fit", "--tau", "1.5", "--out", "tau.json")),
    ("fit-big-minibatch", 2, _train("fit", "--minibatch", "161",
                                    "--out", "minibatch.json")),
    ("fit-unknown-column", 2, _train("fit", "--x", "x9",
                                     "--out", "column.json")),
    ("predict-no-model", 2, ["predict", "--model", "missing.json", "--data",
                             "data.csv", "--out", "missing-predict.csv"]),
    ("simulate-out-dir-file", 2, _simulate("data.csv", "--methods", "lqr")),
]


def run_commands(src, run_dir):
    """Write data.csv and run COMMANDS against the dplqr package under
    `src`, in `run_dir`; the exit code of each command, by name."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = [str(Path(src).resolve()), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _GENERATE], cwd=run_dir, env=env,
                   check=True)
    exits = {}
    for name, _, args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "dplqr.cli", *args],
                              cwd=run_dir, env=env, capture_output=True)
        (run_dir / f"{name}.stdout").write_bytes(done.stdout)
        (run_dir / f"{name}.stderr").write_bytes(done.stderr)
        exits[name] = done.returncode
    (run_dir / "exits.txt").write_text(
        "".join(f"{name} {code}\n" for name, code in exits.items()),
        encoding="utf-8")
    return exits


def _export(revision, dest):
    """dest/src as it stands at `revision`, through git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision,
                              "src"], capture_output=True, check=True)
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    return dest / "src"


def _files(run_dir):
    return {path.relative_to(run_dir).as_posix(): path
            for path in run_dir.rglob("*") if path.is_file()}


def compare(parent_dir, change_dir):
    """One line per file that differs or is on one side only, and the
    number of files that are identical."""
    parent, change = _files(parent_dir), _files(change_dir)
    lines, identical = [], 0
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            lines.append(f"{name}: only in PARENT")
        elif name not in parent:
            lines.append(f"{name}: only in CHANGE")
        elif parent[name].read_bytes() != change[name].read_bytes():
            lines.append(f"{name}: differs")
        else:
            identical += 1
    return lines, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("change", nargs="?",
                        help="git revision; the working tree when omitted")
    parser.add_argument("--keep", help="directory to keep both runs in")
    args = parser.parse_args(argv)
    work = Path(args.keep or tempfile.mkdtemp(prefix="bytecheck-"))
    try:
        sources = {"PARENT": _export(args.parent, work / "parent-tree")}
        sources["CHANGE"] = (ROOT / "src" if args.change is None
                             else _export(args.change, work / "change-tree"))
        for label, src in sources.items():
            run_commands(src, work / label.lower())
        lines, identical = compare(work / "parent", work / "change")
    finally:
        if args.keep is None:
            shutil.rmtree(work)
    for line in lines:
        print(line)
    print(f"{len(lines)} file(s) differ, {identical} identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
