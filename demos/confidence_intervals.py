"""
Wald intervals for the linear coefficients
==========================================

Fit the model on benchmark data with known coefficients, estimate the
asymptotic covariance of theta_hat, and check that the intervals bracket
the truth.

The covariance is  tau*(1-tau) * Omega^{-1} / f(0)^2  where f(0) is the
residual density at zero (Gaussian kernel estimate) and Omega is the
covariance of X after projecting out its dependence on Z.
"""

import numpy as np

from dplqr import DgpSpec, covariance, fit, generate, true_theta
from dplqr.experiment import scenario_grid
from dplqr.rng import make_rng, split

# one draw of the first benchmark case: theta = (1, -1), m(z) = 0.95 * sum(z)
spec = DgpSpec(case=1, n=500, tau=0.5)
data = generate(spec, make_rng(3))
config = scenario_grid(spec.case, spec.n)[0]  # its first learning rate

fit_rng, cov_rng = split(make_rng(4), 2)
fitted = fit(data, spec.tau, config, fit_rng)
estimate = covariance(fitted, data, config, cov_rng, level=0.95)

print(f"residual density at zero: {estimate.f0_hat:.4f}")
print(f"Omega (X decorrelated from Z):\n{np.round(estimate.omega_hat, 4)}")
print(f"asymptotic covariance Sigma:\n{np.round(estimate.sigma_hat, 4)}\n")

theta_true = true_theta(spec)
print("coef   estimate   95% interval        true   inside")
for k in range(2):
    lower, upper = estimate.intervals[k]
    inside = "yes" if lower <= theta_true[k] <= upper else "no"
    print(f"theta{k + 1}  {fitted.theta_hat[k]: .4f}   "
          f"({lower: .4f}, {upper: .4f})  {theta_true[k]: .1f}   {inside}")

# interval width shrinks like 1/sqrt(n): refit on a larger draw
spec_big = DgpSpec(case=1, n=2000, tau=0.5)
data_big = generate(spec_big, make_rng(3))
config_big = scenario_grid(spec_big.case, spec_big.n)[0]
fit_rng, cov_rng = split(make_rng(4), 2)
fitted_big = fit(data_big, spec_big.tau, config_big, fit_rng)
estimate_big = covariance(fitted_big, data_big, config_big, cov_rng)

width = estimate.intervals[0, 1] - estimate.intervals[0, 0]
width_big = estimate_big.intervals[0, 1] - estimate_big.intervals[0, 0]
print(f"\ntheta1 interval width: {width:.4f} at n=500,"
      f" {width_big:.4f} at n=2000")
