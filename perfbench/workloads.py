"""The benchmark's workloads: inputs drawn from the seed, one operation, checks.

Each workload object is made for one run from (seed, inputs directory).
`prepare` draws and writes the inputs and runs in a fresh set-up process;
`start` builds, untimed, what the checks compare against; `run_op(i)`
performs operation i (a replicate, or a `dplqr predict` call) and
returns its output; `problems(output)` lists what is wrong with it.

dplqr functions are called through their modules (`experiment.run_experiment`)
so that the traced run sees the wrappers installed in those modules.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dplqr import cli, dgp, experiment, model, modelio
from dplqr.errors import DplqrError
from dplqr.rng import child_rng

ROOT = Path(__file__).resolve().parent.parent
Z_COLUMNS = [f"z{k}" for k in range(1, dgp.Z_DIM + 1)]
CLI_TIMEOUT_S = 150


class OpFailed(Exception):
    """An operation that ran but did not produce an output."""


FAILURES = (DplqrError, OpFailed)


def master_seed(seed, i):
    """Seed of operation i; runs with different --seed share no replicate."""
    return 1000 * seed + i


def child_env():
    """Environment for subprocesses: this process's, with src/ importable."""
    existing = os.environ.get("PYTHONPATH")
    path = str(ROOT / "src") + (os.pathsep + existing if existing else "")
    return dict(os.environ, PYTHONPATH=path)


class SimWorkload:
    """One replicate per operation: run_experiment with q=1, workers=1."""

    def __init__(self, seed, inputs_dir, spec, methods, with_ci):
        self.seed = seed
        self.spec = spec
        self.methods = methods
        self.with_ci = with_ci
        self.truth = dgp.true_theta(spec)

    def prepare(self):
        # run_experiment draws each replicate's data itself from its master
        # seed; set-up draws replicate 0's dataset the same way.
        data = dgp.generate(self.spec, child_rng(master_seed(self.seed, 0), 0))
        if not np.all(np.isfinite(data.y)):
            raise SystemExit("generated responses are not finite")

    def start(self):
        pass

    def run_op(self, i, in_process):
        report = experiment.run_experiment(
            self.spec, 1, self.methods, master_seed=master_seed(self.seed, i),
            with_ci=self.with_ci, workers=1)
        return report.replicates

    def fingerprint(self, output):
        parts = []
        for row in output:
            parts += [row.method.encode(), row.theta_hat.tobytes(),
                      b"" if row.intervals is None else row.intervals.tobytes(),
                      repr(row.rmse_m).encode(), repr(row.mspe).encode()]
        return b"|".join(parts)

    def problems(self, output):
        found = []
        for row in output:
            where = f"replicate {row.replicate} {row.method}"
            if not np.all(np.isfinite(row.theta_hat)):
                found.append(f"{where}: theta_hat {row.theta_hat} not finite")
            if self.with_ci and row.intervals is not None:
                lo, hi = row.intervals[:, 0], row.intervals[:, 1]
                if not np.all((lo <= row.theta_hat) & (row.theta_hat <= hi)):
                    found.append(f"{where}: interval {row.intervals.tolist()}"
                                 f" does not bracket {row.theta_hat.tolist()}")
        return found

    def theta_errors(self, outputs):
        return [row.theta_hat - self.truth for output in outputs
                for row in output if row.method == "dplqr"]


class CliPredictWorkload:
    """One fresh-process `dplqr predict` call on a 100k-row CSV per operation."""

    ROWS = 100_000
    TRAIN_SPEC = dgp.DgpSpec(case=3, n=2_000)
    PREDICT_SPEC = dgp.DgpSpec(case=3, n=ROWS)
    FIT_FLAGS = ("--depth", "3", "--width", "32", "--lr", "0.01",
                 "--epochs", "100", "--minibatch", "128", "--patience", "20")

    def __init__(self, seed, inputs_dir):
        self.seed = seed
        self.dir = Path(inputs_dir)
        self.train_csv = self.dir / "train.csv"
        self.predict_csv = self.dir / "predict.csv"
        self.model_json = self.dir / "model.json"
        self.expected = None

    def _draw(self, spec, stream):
        return dgp.generate(spec, child_rng(master_seed(self.seed, 0), stream))

    def prepare(self):
        write_csv(self.train_csv, self._draw(self.TRAIN_SPEC, 0))
        write_csv(self.predict_csv, self._draw(self.PREDICT_SPEC, 1))
        argv = ["fit", "--data", str(self.train_csv), "--y", "y",
                "--x", "x1,x2", "--z", ",".join(Z_COLUMNS),
                "--seed", str(self.seed), *self.FIT_FLAGS,
                "--out", str(self.model_json)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"dplqr fit exited with {code}")

    def start(self):
        """The predictions CSV that `dplqr predict` must write, bit for bit."""
        fitted, _, scaling = modelio.load_model(str(self.model_json))
        data = self._draw(self.PREDICT_SPEC, 1)
        inputs = modelio.apply_scaling(
            model.Dataset(np.zeros(data.n), data.x, data.z), scaling)
        values = model.predict_batch(fitted, inputs.x, inputs.z)
        self.expected = ("prediction\n" + "".join(
            repr(float(v)) + "\n" for v in values)).encode()

    def run_op(self, i, in_process):
        out = self.dir / f"predictions-{i % 2}.csv"
        argv = ["predict", "--model", str(self.model_json),
                "--data", str(self.predict_csv), "--out", str(out)]
        if in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            error = f"exit {code}"
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "dplqr.cli", *argv], cwd=ROOT,
                env=child_env(), capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S)
            code, error = proc.returncode, proc.stderr.strip()[-300:]
        if code != 0:
            raise OpFailed(f"dplqr predict failed: {error}")
        return out.read_bytes()

    def fingerprint(self, output):
        return output

    def problems(self, output):
        lines = output.count(b"\n")
        if lines != self.ROWS + 1:
            return [f"predictions file has {lines} lines, expected"
                    f" {self.ROWS + 1}"]
        if output != self.expected:
            return ["predictions differ from in-process predict_batch"
                    " on the reloaded model"]
        return []

    def theta_errors(self, outputs):
        # The model's theta is in min-max scaled x units; dividing by the
        # stored span gives the coefficient of the raw column.
        payload = json.loads(self.model_json.read_text())
        raw = np.asarray(payload["theta"]) / np.asarray(payload["scaling"]["x_span"])
        return [raw - dgp.true_theta(self.TRAIN_SPEC)]


def write_csv(path, data):
    """y, x1, x2, z1..z10 with repr floats, which read back exactly."""
    header = ["y", "x1", "x2"] + Z_COLUMNS
    table = np.column_stack([data.y, data.x, data.z]).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in table:
            handle.write(",".join(map(repr, row)) + "\n")


def _sim(spec, methods, with_ci):
    return lambda seed, inputs_dir: SimWorkload(seed, inputs_dir, spec,
                                                methods, with_ci)


WORKLOADS = {
    "sim_case3_n2000": _sim(dgp.DgpSpec(case=3, n=2000, tau=0.5),
                            ("dplqr",), True),
    "sim_case1_n500_modes": _sim(dgp.DgpSpec(case=1, n=500),
                                 ("dplqr", "lqr", "dnqr"), False),
    "cli_predict_100k": CliPredictWorkload,
}
