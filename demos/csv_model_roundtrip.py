"""
CSV in, JSON model out, predictions back
========================================

The command line surface end to end: write a training CSV, fit a model
file with the `fit` subcommand, apply it with `predict`, and show that
the saved model reloads into the library API.

Everything here goes through dplqr.cli.main, which is what the
installed `dplqr` console script calls.
"""

import json
import os
import tempfile

import numpy as np

from dplqr.cli import main
from dplqr.modelio import load_model

workdir = tempfile.mkdtemp(prefix="dplqr_demo_")
train_csv = os.path.join(workdir, "train.csv")
model_json = os.path.join(workdir, "model.json")
report_json = os.path.join(workdir, "report.json")
pred_csv = os.path.join(workdir, "predictions.csv")

# a small training table: median of y is 2*x1 + z1^2
rng = np.random.default_rng(7)
n = 300
x1 = rng.normal(size=n)
z1 = rng.uniform(0.0, 2.0, size=n)
y = 2.0 * x1 + z1 ** 2 + 0.3 * rng.standard_normal(n)
with open(train_csv, "w", encoding="utf-8") as handle:
    handle.write("y,x1,z1\n")
    for row in zip(y, x1, z1):
        handle.write(",".join(repr(float(v)) for v in row) + "\n")

# fit: tune over two learning rates, write model + report JSON.
# --no-scale keeps theta on the raw covariate so it is comparable to
# the true slope 2; by default covariates are min-max scaled before
# fitting (and the scaling is stored in the model file)
code = main([
    "fit", "--data", train_csv, "--y", "y", "--x", "x1", "--z", "z1",
    "--tau", "0.5", "--seed", "0", "--depth", "2", "--width", "8",
    "--epochs", "200", "--minibatch", "64", "--patience", "50",
    "--lr", "0.005,0.02", "--no-scale",
    "--out", model_json, "--report", report_json,
])
assert code == 0

# predict on the training covariates (the response column is ignored)
code = main(["predict", "--model", model_json, "--data", train_csv,
             "--out", pred_csv])
assert code == 0

with open(pred_csv, encoding="utf-8") as handle:
    predictions = [float(line) for line in handle.read().splitlines()[1:]]
err = float(np.mean((np.array(predictions) - (2.0 * x1 + z1 ** 2)) ** 2))
print(f"\nmean squared error of predictions vs true median: {err:.4f}")

# the report JSON records the chosen configuration and the intervals
with open(report_json, encoding="utf-8") as handle:
    report = json.load(handle)
print(f"tuned learning rate: {report['config']['lr']}")
print(f"theta1 interval: {report['covariance']['intervals'][0]}")

# the model file reloads into the library API, scaling included
fitted, roles, scaling = load_model(model_json)
print(f"reloaded model: mode={fitted.mode}, tau={fitted.tau},"
      f" columns y={roles.y!r} x={roles.x} z={roles.z}")
print(f"files live in {workdir}")
