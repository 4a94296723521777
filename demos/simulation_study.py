"""
A small replicated benchmark run
================================

Compare the partially linear network fit against its fully linear and
fully nonparametric variants on benchmark case 3 (a composite
nonlinearity), at a desk-friendly replicate count.
"""

from dplqr import DgpSpec, run_experiment
from dplqr.experiment import report_to_text, scenario_grid

spec = DgpSpec(case=3, n=500, tau=0.5)

# each replicate draws fresh data, carves an 80/20 train/test split,
# fits each network method at both of the scenario's learning rates and
# keeps the one with the lower validation loss as its fit (the linear
# method is fitted exactly, with nothing to tune), and scores
# coefficient error, interval coverage, function error, and prediction
# error on the test fifth
report = run_experiment(
    spec,
    q=5,
    methods=("dplqr", "lqr", "dnqr"),
    master_seed=0,
    grid=scenario_grid(spec.case, spec.n),
    with_ci=True,
)

print(report_to_text(report))

# what the columns mean:
#   bias/sd/cover  per-coefficient aggregates over replicates
#   rmse_m         relative mean squared error of the fitted z-function
#                  (absent for the dnqr variant, which has no separable
#                  linear/nonparametric split)
#   mspe           mean squared prediction error on held-out rows
summary = report.methods["dplqr"]
print(f"dplqr function error averaged over {summary.replicates}"
      f" replicates: {summary.mean_rmse_m:.4f}")

linear = report.methods["lqr"]
print(f"the linear variant misses case 3's nonlinearity:"
      f" rmse {linear.mean_rmse_m:.4f}")
