"""Partially linear quantile regression with deep network components.

Fit models of the form  quantile_tau(Y | x, z) = x @ theta + m(z)  by
joint minibatch-Adam training of theta and a ReLU network m on the check
loss, with Wald inference for theta from the homoscedastic asymptotic
covariance. Includes the exact linear quantile regression, the lqr
method and the linear baseline (dplqr.model.fit_lqr, solved by an
interior-point method in dplqr.rq), synthetic benchmark scenarios, and
a CLI (see dplqr.cli). The CLI and the experiments also run dnqr, a
network on every covariate with no linear part: a dplqr fit with every
covariate in z.
"""

from .dgp import DgpSpec, generate, true_theta
from .errors import (ConfigError, DataError, DplqrError, SingularMatrixError,
                     TrainingError)
from .experiment import run_experiment
from .inference import covariance
from .model import Dataset, fit, predict, residuals
from .optimizer import TrainConfig
from .rng import make_rng

__version__ = "0.1.0"

# The names the README and demos import; everything else is reached
# through its submodule (dplqr.dgp.true_m, dplqr.experiment.scenario_grid).
__all__ = [
    "ConfigError", "DataError", "Dataset", "DgpSpec", "DplqrError",
    "SingularMatrixError", "TrainConfig", "TrainingError", "covariance",
    "fit", "generate", "make_rng", "predict", "residuals", "run_experiment",
    "true_theta",
]
