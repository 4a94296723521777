"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints ``criterion NN PASS/FAIL  name: detail`` directly to the
terminal (bypassing capture) before asserting, so a full run always shows
twelve verdict lines. Statistical gates run at pinned seeds and reduced
replicate counts with widened tolerance bands; the oracle gates compare
against independently computed references.
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")  # the references below are scipy's
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

from dplqr.cli import main as cli_main
from dplqr.dgp import (COPULA_DIM, DgpSpec, generate, m_case,
                       make_covariates, sample_copula, sample_t3,
                       sigma1_case, t3_quantile, true_quantile)
from dplqr.experiment import run_experiment, scenario_grid
from dplqr.inference import kde_at_zero
from dplqr.model import fit, residuals
from dplqr.network import backward_batch, forward_batch, init_params
from dplqr.optimizer import TrainConfig
from dplqr.quantile_loss import mean_check_loss
from dplqr.rng import make_rng, std_normal


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:>2} {'PASS' if ok else 'FAIL'}  "
              f"{name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------- 1

def _hidden_preacts(params, z):
    a = np.asarray(z, dtype=float)
    pre = []
    for w in params.layers[:-1]:
        s = w[:, :-1] @ a + w[:, -1]
        pre.append(s)
        a = np.maximum(s, 0.0)
    return np.concatenate(pre) if pre else np.array([1.0])


def test_criterion_01_gradient_oracle(capsys):
    # backward vs central finite differences (h = 1e-5) on 100 random
    # nets with width chains no larger than (4, 8, 8, 1); inputs whose
    # hidden pre-activations sit within 1e-3 of a relu kink are redrawn
    # so the perturbation never crosses a kink
    rng = make_rng(101)
    shapes = np.random.default_rng(7)
    h = 1e-5
    checked_nets = 0
    worst = 0.0
    attempts = 0
    while checked_nets < 100 and attempts < 500:
        attempts += 1
        q0 = int(shapes.integers(1, 5))
        depth = int(shapes.integers(1, 4))
        widths = (q0,) + tuple(int(shapes.integers(1, 9))
                               for _ in range(depth - 1)) + (1,)
        params = init_params(widths, rng)
        for w in params.layers:
            w[:, -1] = 0.3 * std_normal(rng, w.shape[0])
        z = std_normal(rng, q0)
        if np.min(np.abs(_hidden_preacts(params, z))) < 1e-3:
            continue
        row = z.reshape(1, -1)
        grads = backward_batch(params, row, np.ones(1))
        for k, w in enumerate(params.layers):
            flat = w.ravel()
            gflat = grads[k].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = forward_batch(params, row)[0]
                flat[idx] = orig - h
                down = forward_batch(params, row)[0]
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                bp = gflat[idx]
                if abs(fd) < 1e-10 and abs(bp) < 1e-10:
                    continue  # dead unit: both sides exactly zero
                worst = max(worst, abs(bp - fd) / max(abs(fd), 1e-12))
        checked_nets += 1
    ok = checked_nets == 100 and worst < 1e-5
    _verdict(capsys, 1, "gradient oracle", ok,
             f"max relative error {worst:.2e} over {checked_nets} nets"
             f" (tolerance 1e-5)")


# ---------------------------------------------------------------- 2

def test_criterion_02_pinball_argmin_oracle(capsys):
    # the constant c minimizing mean check loss on a sample must agree
    # with the sorted-order-statistic quantile within one gap
    n = 50
    worst_gap_violation = True
    details = []
    ok = True
    for seed in range(5):
        y = 2.0 * std_normal(make_rng(seed), n) + 1.0
        ys = np.sort(y)
        for tau in (0.2, 0.5, 0.8):
            losses = [mean_check_loss(y - c, tau) for c in y]
            c_star = float(y[int(np.argmin(losses))])
            k = math.ceil(n * tau)          # 1-indexed order statistic
            target = ys[k - 1]
            lo = ys[max(k - 2, 0)]
            hi = ys[min(k, n - 1)]
            inside = lo - 1e-12 <= c_star <= hi + 1e-12
            ok = ok and inside
            details.append(abs(c_star - target))
    _verdict(capsys, 2, "pinball argmin oracle", ok,
             f"15 sample/level pairs, worst |argmin - sorted quantile|"
             f" {max(details):.4f}, all within one order-statistic gap")


# ---------------------------------------------------------------- 3

def test_criterion_03_linear_recovery(capsys):
    # case 1, n=2000, tau=0.5, fully linear method, Q=20 replicates
    spec = DgpSpec(case=1, n=2000, tau=0.5)
    report = run_experiment(spec, 20, methods=("lqr",), master_seed=5,
                            with_ci=False)
    s = report.methods["lqr"]
    bias1, sd1 = abs(float(s.bias[0])), float(s.sd[0])
    ok = bias1 < 0.1 and sd1 < 0.20
    _verdict(capsys, 3, "linear recovery", ok,
             f"|bias(theta1)| {bias1:.4f} < 0.1, sd {sd1:.4f} < 0.20"
             f" (Q=20, seed 5)")


# ---------------------------------------------------------------- 4

def test_criterion_04_coverage(capsys):
    # case 1, n=500, tau=0.5, Q=40: empirical coverage of the 95% Wald
    # interval for theta1 must land in [0.85, 1.00]
    spec = DgpSpec(case=1, n=500, tau=0.5)
    report = run_experiment(spec, 40, methods=("dplqr",), master_seed=1,
                            grid=scenario_grid(1, 500), with_ci=True)
    cover1 = float(report.methods["dplqr"].coverage[0])
    ok = 0.85 <= cover1 <= 1.00
    _verdict(capsys, 4, "coverage", ok,
             f"theta1 coverage {cover1:.3f} in [0.85, 1.00]"
             f" (Q=40, seed 1, failures {len(report.failures)})")


# ---------------------------------------------------------------- 5, 6

@pytest.fixture(scope="module")
def case3_runs():
    spec500 = DgpSpec(case=3, n=500, tau=0.5)
    spec2000 = DgpSpec(case=3, n=2000, tau=0.5)
    r500 = run_experiment(spec500, 10, methods=("dplqr",), master_seed=5,
                          with_ci=False)
    r2000 = run_experiment(spec2000, 10, methods=("dplqr", "lqr"),
                           master_seed=5, with_ci=False)
    return r500, r2000


def test_criterion_05_rate_property(capsys, case3_runs):
    r500, r2000 = case3_runs
    small = float(r500.methods["dplqr"].mean_rmse_m)
    large = float(r2000.methods["dplqr"].mean_rmse_m)
    ok = large < small
    _verdict(capsys, 5, "rate property", ok,
             f"case 3 mean rmse_m {small:.4f} (n=500) -> {large:.4f}"
             f" (n=2000), decreasing (Q=10, seed 5)")


def test_criterion_06_superiority(capsys, case3_runs):
    _, r2000 = case3_runs
    ours = float(r2000.methods["dplqr"].mean_rmse_m)
    linear = float(r2000.methods["lqr"].mean_rmse_m)
    ok = ours < linear
    _verdict(capsys, 6, "superiority over linear fit", ok,
             f"case 3 n=2000 mean rmse_m {ours:.4f} vs {linear:.4f}"
             f" for the linear baseline (Q=10, seed 5)")


# ---------------------------------------------------------------- 7

def test_criterion_07_kde_oracle(capsys):
    est = kde_at_zero(std_normal(make_rng(707), 10_000))
    ok = 0.37 <= est <= 0.43
    _verdict(capsys, 7, "density-at-zero oracle", ok,
             f"estimate {est:.4f} in [0.37, 0.43] (analytic 0.3989)")


# ---------------------------------------------------------------- 8

def test_criterion_08_copula_oracle(capsys):
    draws = sample_copula(100_000, COPULA_DIM, 0.5, make_rng(808))
    means = draws.mean(axis=0)
    variances = draws.var(axis=0)
    scores = ndtri(draws / 2.0)
    corr = np.corrcoef(scores.T)
    off_diag = corr[~np.eye(COPULA_DIM, dtype=bool)]
    mean_corr = float(off_diag.mean())
    ok = (np.all((0.99 <= means) & (means <= 1.01))
          and np.all((0.32 <= variances) & (variances <= 0.35))
          and 0.45 <= mean_corr <= 0.55)
    _verdict(capsys, 8, "copula oracle", ok,
             f"marginal means [{means.min():.4f}, {means.max():.4f}],"
             f" variances [{variances.min():.4f}, {variances.max():.4f}],"
             f" normal-score correlation {mean_corr:.4f}")


# ---------------------------------------------------------------- 9

def test_criterion_09_t3_quantile_oracle(capsys):
    # independent reference: integrate the density numerically and
    # invert with a root finder
    c = 2.0 / (np.pi * np.sqrt(3.0))

    def pdf(t):
        return c / (1.0 + t * t / 3.0) ** 2

    def cdf(t):
        val, _ = quad(pdf, 0.0, t)
        return 0.5 + val

    reference = brentq(lambda t: cdf(t) - 0.8, 0.0, 10.0, xtol=1e-12)
    got = t3_quantile(0.8)
    err = abs(got - reference)
    ok = err <= 1e-4 and t3_quantile(0.5) == 0.0
    _verdict(capsys, 9, "t3 quantile oracle", ok,
             f"|t3_quantile(0.8) - integrated reference| = {err:.2e}"
             f" (tolerance 1e-4); t3_quantile(0.5) == 0 exactly")


# ---------------------------------------------------------------- 10

def test_criterion_10_true_quantile_oracle(capsys):
    # for every case: 5 random covariate points, quantile levels rotating
    # through {0.2, 0.5, 0.8}; the closed-form tau-quantile must match the
    # empirical quantile of 10^6 simulated responses within 0.02
    taus = (0.2, 0.5, 0.8)
    worst = 0.0
    ok = True
    for case in (1, 2, 3, 4, 5, 6):
        rng = make_rng(1000 + case)
        x_pts, z_pts = make_covariates(
            sample_copula(5, COPULA_DIM, 0.5, rng))
        eps = sample_t3(1_000_000, rng)
        base_case = case if case <= 3 else case - 3
        for i in range(5):
            tau = taus[i % 3]
            spec = DgpSpec(case=case, n=100, tau=tau)
            x, z = x_pts[i], z_pts[i]
            level = x @ np.array([1.0, -1.0]) + m_case(base_case, z)
            scale = (1.0 if case <= 3
                     else sigma1_case(case, x, z))
            responses = level + scale * eps
            mc = float(np.quantile(responses, tau))
            exact = float(true_quantile(spec, x, z))
            gap = abs(exact - mc)
            worst = max(worst, gap)
            ok = ok and gap < 0.02
    _verdict(capsys, 10, "true-quantile oracle", ok,
             f"30 case/point checks, worst |closed form - Monte Carlo|"
             f" = {worst:.4f} (tolerance 0.02)")


# ---------------------------------------------------------------- 11

def _write_csv(path, n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    z = rng.uniform(0, 2, size=(n, 2))
    y = x[:, 0] - x[:, 1] + z.sum(axis=1) + 0.3 * rng.standard_normal(n)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,x1,x2,z1,z2\n")
        for i in range(n):
            row = (y[i], x[i, 0], x[i, 1], z[i, 0], z[i, 1])
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    data = _write_csv(tmp_path / "train.csv")
    identical = []

    models = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}.json"
        code = cli_main(["fit", "--data", data, "--y", "y", "--x",
                         "x1,x2", "--z", "z1,z2", "--tau", "0.5",
                         "--seed", "9", "--depth", "2", "--width", "4",
                         "--epochs", "30", "--minibatch", "64",
                         "--patience", "30", "--out", str(out)])
        assert code == 0
        models.append(out.read_bytes())
    identical.append(("fit model", models[0] == models[1]))

    preds = []
    for tag in ("a", "b"):
        out = tmp_path / f"pred_{tag}.csv"
        code = cli_main(["predict", "--model",
                         str(tmp_path / "model_a.json"), "--data", data,
                         "--out", str(out)])
        assert code == 0
        preds.append(out.read_bytes())
    identical.append(("predictions", preds[0] == preds[1]))

    sims = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"sim_{tag}"
        code = cli_main(["simulate", "--case", "1", "--n", "200",
                         "--tau", "0.5", "--replicates", "2",
                         "--methods", "dplqr", "--seed", "4",
                         "--depth", "2", "--width", "4", "--epochs",
                         "15", "--minibatch", "64", "--patience", "15",
                         "--no-ci", "--out-dir", str(out_dir)])
        assert code == 0
        sims.append(b"".join((out_dir / name).read_bytes()
                             for name in ("report.csv", "report.txt",
                                          "report.json")))
    identical.append(("simulation reports", sims[0] == sims[1]))

    ok = all(flag for _, flag in identical)
    detail = ", ".join(f"{name} {'identical' if flag else 'DIFFER'}"
                       for name, flag in identical)
    _verdict(capsys, 11, "repeat-run determinism", ok, detail)


# ---------------------------------------------------------------- 12

def test_criterion_12_quantile_calibration(capsys):
    # case 1, n=2000, fits at tau 0.2 and 0.8: the share of training
    # residuals below zero must land within tau +/- 0.05
    cfg = TrainConfig(depth=2, width=4, epochs=1500, minibatch=400,
                      early_stop_patience=300, learning_rate=0.01)
    devs = {}
    ok = True
    for tau in (0.2, 0.8):
        spec = DgpSpec(case=1, n=2000, tau=tau)
        data = generate(spec, make_rng(42))
        fitted = fit(data, tau, cfg, make_rng(17))
        frac = float(np.mean(residuals(fitted, data) < 0))
        devs[tau] = frac
        ok = ok and abs(frac - tau) <= 0.05
    _verdict(capsys, 12, "quantile calibration", ok,
             f"fraction below zero: {devs[0.2]:.4f} at tau 0.2,"
             f" {devs[0.8]:.4f} at tau 0.8 (band +/- 0.05)")
