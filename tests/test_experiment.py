"""Tests for the replicated benchmark experiments."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqr import experiment, optimizer
from dplqr.dgp import DgpSpec, generate, mspe
from dplqr.errors import ConfigError, TrainingError
from dplqr.experiment import (MethodSummary, report_to_csv, report_to_text,
                              run_experiment, scenario_grid)
from dplqr.model import predict_batch
from dplqr.optimizer import TrainConfig, _holdout_split, tune
from dplqr.rng import child_rng, split

# small, fast configuration for functional tests; accuracy is covered
# by the acceptance suite
_FAST = [TrainConfig(depth=2, width=4, epochs=30, minibatch=64,
                     early_stop_patience=30, learning_rate=0.02)]


class TestScenarioTables:
    def test_known_rows(self):
        cfg = scenario_grid(1, 500)[0]
        assert (cfg.depth, cfg.width, cfg.epochs) == (2, 16, 500)
        assert (cfg.minibatch, cfg.early_stop_patience) == (64, 50)
        assert cfg.learning_rate == 0.01
        cfg = scenario_grid(3, 2000)[0]
        assert (cfg.depth, cfg.width, cfg.epochs) == (3, 32, 600)
        assert (cfg.minibatch, cfg.early_stop_patience) == (128, 100)

    def test_heteroscedastic_cases_share_base_rows(self):
        for case in (4, 5, 6):
            assert scenario_grid(case, 500) == scenario_grid(case - 3, 500)
            assert scenario_grid(case, 2000) == scenario_grid(case - 3, 2000)

    def test_grid_varies_learning_rate_only(self):
        grid = scenario_grid(2, 500)
        assert len(grid) == 2
        assert {c.learning_rate for c in grid} == {0.009, 0.01}
        a, b = grid
        assert (a.depth, a.width, a.epochs) == (b.depth, b.width, b.epochs)


class TestRunExperiment:
    def test_report_structure(self):
        spec = DgpSpec(case=1, n=200, tau=0.5)
        report = run_experiment(spec, 3, methods=("dplqr",), master_seed=0,
                                grid=_FAST, with_ci=False)
        assert report.q_requested == 3
        assert report.failures == []
        assert set(report.methods) == {"dplqr"}
        summary = report.methods["dplqr"]
        assert summary.replicates == 3
        assert summary.bias.shape == (2,)
        assert summary.sd.shape == (2,)
        assert summary.coverage is None
        assert summary.mean_rmse_m is not None
        assert summary.mean_mspe > 0
        assert len(report.replicates) == 3

    def test_with_intervals(self):
        spec = DgpSpec(case=1, n=200, tau=0.5)
        report = run_experiment(spec, 2, methods=("dplqr",), master_seed=1,
                                grid=_FAST, with_ci=True)
        summary = report.methods["dplqr"]
        assert summary.coverage.shape == (2,)
        assert np.all((0.0 <= summary.coverage) & (summary.coverage <= 1.0))
        row = report.replicates[0]
        assert row.intervals.shape == (2, 2)
        assert row.covered.shape == (2,)

    def test_multiple_methods_and_dnqr_gaps(self):
        spec = DgpSpec(case=1, n=200, tau=0.5)
        report = run_experiment(
            spec, 2, methods=("dplqr", "lqr", "dnqr"), master_seed=2,
            grid=_FAST, with_ci=False)
        assert set(report.methods) == {"dplqr", "lqr", "dnqr"}
        dnqr = report.methods["dnqr"]
        # dnqr has no linear coefficients and no separable z-function
        assert dnqr.bias is None and dnqr.coverage is None
        assert dnqr.mean_rmse_m is None
        assert dnqr.mean_mspe > 0

    def test_reproducible(self):
        spec = DgpSpec(case=4, n=200, tau=0.3)
        a = run_experiment(spec, 2, master_seed=7, grid=_FAST, with_ci=False)
        b = run_experiment(spec, 2, master_seed=7, grid=_FAST, with_ci=False)
        assert_allclose(a.methods["dplqr"].bias, b.methods["dplqr"].bias,
                        rtol=0)
        for ra, rb in zip(a.replicates, b.replicates):
            assert_allclose(ra.theta_hat, rb.theta_hat, rtol=0)

    def test_parallel_workers_match_serial(self):
        spec = DgpSpec(case=1, n=200, tau=0.5)
        serial, parallel = (
            run_experiment(spec, 2, master_seed=5, grid=_FAST, with_ci=True,
                           workers=workers)
            for workers in (1, 2))
        assert len(serial.replicates) == len(parallel.replicates) == 2
        for rs, rp in zip(serial.replicates, parallel.replicates):
            assert (rs.replicate, rs.method) == (rp.replicate, rp.method)
            assert rs.theta_hat.tobytes() == rp.theta_hat.tobytes()
            assert rs.intervals.tobytes() == rp.intervals.tobytes()
            assert (rs.rmse_m, rs.mspe) == (rp.rmse_m, rp.mspe)

    def test_method_results_stable_under_method_set(self):
        # dropping a method must not change another method's stream
        spec = DgpSpec(case=1, n=200, tau=0.5)
        both = run_experiment(spec, 2, methods=("dplqr", "lqr"),
                              master_seed=3, grid=_FAST, with_ci=False)
        alone = run_experiment(spec, 2, methods=("lqr",),
                               master_seed=3, grid=_FAST, with_ci=False)
        for rb, ra in zip(
                [r for r in both.replicates if r.method == "lqr"],
                alone.replicates):
            assert_allclose(rb.theta_hat, ra.theta_hat, rtol=0)

    def test_each_method_trains_its_own_network_from_an_lqr_entry(
            self, monkeypatch):
        # the entry lqr takes keeps its depth, so dplqr trains it in full;
        # the lqr fit is solved exactly and trains nothing
        from dplqr import model
        trained, solved = [], []

        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            trained.append(result[1].widths)
            return result

        def record_lqr(data, tau):
            fitted = model.fit_lqr(data, tau)
            solved.append(fitted.network.widths)
            return fitted
        original = model.train_joint
        monkeypatch.setattr(model, "train_joint", record)
        monkeypatch.setattr(experiment, "fit_lqr", record_lqr)
        grid = [TrainConfig(depth=3, width=16, epochs=5, minibatch=64,
                            early_stop_patience=5)]
        run_experiment(DgpSpec(case=1, n=200, tau=0.5), 1,
                       methods=("dplqr", "lqr"), grid=grid, with_ci=False)
        assert trained == [(10, 16, 16, 1)]
        assert solved == [(10, 1)]

    def test_pool_starts_no_more_workers_than_replicates(self,
                                                         monkeypatch):
        # a fork pool starts all its workers at the first submit, so the
        # pool is capped at the replicates and at the CPUs the process
        # may use; the pool here records its size and maps in this
        # process, and the CPU count is patched
        import concurrent.futures
        import os
        sizes = []

        def set_cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(count)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: count)

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        spec = DgpSpec(case=1, n=200, tau=0.5)
        set_cpus(8)
        report = run_experiment(spec, 2, master_seed=4515, grid=_FAST,
                                with_ci=False, workers=64)
        assert sizes == [2]
        assert report.methods["dplqr"].replicates == 2
        sizes.clear()
        set_cpus(2)
        report = run_experiment(spec, 4, master_seed=6211, grid=_FAST,
                                with_ci=False, workers=64)
        assert sizes == [2]
        assert report.methods["dplqr"].replicates == 4

    def test_failure_abort(self, monkeypatch, recwarn):
        # every replicate failing to train trips the 10% abort rule: one
        # error names the first failed replicate and why, with no warning
        def diverge(*args):
            raise TrainingError("loss is not finite")
        monkeypatch.setattr(experiment, "_run_replicate", diverge)
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with pytest.raises(TrainingError, match=(
                "^2 of 2 replicates failed; replicate 0: TrainingError:"
                " loss is not finite$")):
            run_experiment(spec, 2, master_seed=0, grid=_FAST,
                           with_ci=False)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("failing", [{6}, {7, 2}])
    def test_ten_percent_of_replicates_may_fail(self, monkeypatch, failing):
        # of 10 replicates one may fail: it is recorded with its reason
        # and the other 9 are summarized; a second failure aborts, naming
        # the lower of the two
        def some_diverge(spec, r, *args):
            if r in failing:
                raise TrainingError(f"replicate {r} diverged")
            return run_replicate(spec, r, *args)
        run_replicate = experiment._run_replicate
        monkeypatch.setattr(experiment, "_run_replicate", some_diverge)
        spec = DgpSpec(case=1, n=100, tau=0.5)
        grid = [TrainConfig(depth=1, width=2, epochs=3, minibatch=40,
                            early_stop_patience=3)]
        if len(failing) > 1:
            with pytest.raises(TrainingError, match=(
                    "^2 of 10 replicates failed; replicate 2: TrainingError:"
                    " replicate 2 diverged$")):
                run_experiment(spec, 10, master_seed=8289, grid=grid,
                               with_ci=False)
            return
        report = run_experiment(spec, 10, master_seed=8289, grid=grid,
                                with_ci=False)
        assert report.failures == [
            {"replicate": 6, "error": "TrainingError: replicate 6 diverged"}]
        assert [row.replicate for row in report.replicates] == [
            0, 1, 2, 3, 4, 5, 7, 8, 9]
        assert report.methods["dplqr"].replicates == 9
        assert report_to_text(report).startswith(
            "case 1  n=100  tau=0.5  Q=10  failures=1  seed=8289\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_settings_error_is_not_a_failed_replicate(self, workers):
        # a minibatch larger than every replicate's training split is
        # wrong for all of them: it is raised, not counted as a failure
        spec = DgpSpec(case=1, n=100, tau=0.5)
        bad = [TrainConfig(minibatch=10 ** 6)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match="minibatch"):
                run_experiment(spec, 2, master_seed=0, grid=bad,
                               with_ci=False, workers=workers)
        assert not [w for w in caught if "replicate" in str(w.message)]

    def test_settings_error_of_a_replicate_is_raised(self, monkeypatch):
        # whatever a replicate raises as a ConfigError holds for every
        # replicate: run_experiment raises it and counts no failure
        def misconfigured(spec, r, *args):
            raise ConfigError(f"replicate {r} is misconfigured")
        monkeypatch.setattr(experiment, "_run_replicate", misconfigured)
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError,
                               match="^replicate 0 is misconfigured$"):
                run_experiment(spec, 2, master_seed=7510, grid=_FAST,
                               with_ci=False)
        assert not caught

    def test_tuned_winner_is_the_replicate_fit(self, monkeypatch):
        # a grid of two learning rates trains once, as one stack on the
        # replicate's training rows: the replicate's theta and mspe are
        # those of the fit tune returns on the method's tune stream
        stacks = []

        def counted(ys, x, z, configs, rngs, tau=None):
            stacks.append(len(configs))
            return train_stack(ys, x, z, configs, rngs, tau)
        train_stack = optimizer.train_stack
        monkeypatch.setattr(optimizer, "train_stack", counted)
        spec = DgpSpec(case=1, n=100, tau=0.5)
        grid = [TrainConfig(depth=2, width=4, epochs=20, minibatch=32,
                            early_stop_patience=5, learning_rate=lr)
                for lr in (0.01, 0.05)]
        report = run_experiment(spec, 1, ("dplqr",), master_seed=8307,
                                grid=grid, with_ci=False)
        monkeypatch.undo()
        assert stacks == [2]

        rng = child_rng(8307, 0)
        data = generate(spec, rng)
        train_idx, test_idx = _holdout_split(spec.n, rng)
        tune_rng = split(split(rng, len(experiment.METHODS))[0], 3)[0]
        _, fitted = tune(grid, data.subset(train_idx), 0.5, tune_rng)
        test = data.subset(test_idx)
        (row,) = report.replicates
        assert row.theta_hat.tobytes() == fitted.theta_hat.tobytes()
        assert row.mspe == mspe(predict_batch(fitted, test.x, test.z),
                                test.y)

    def test_dnqr_grid_checked_as_dplqr_grid(self, monkeypatch):
        # a replicate's candidates fit on its 80 training rows, and each
        # epoch of a candidate trains on 64 of those; dnqr's wider
        # network input does not change the rule or its message
        def no_replicate(args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(experiment, "_try_replicate", no_replicate)
        spec = DgpSpec(case=1, n=100, tau=0.5)
        grid = [TrainConfig(depth=2, width=4, epochs=30, minibatch=65,
                            early_stop_patience=30, learning_rate=lr)
                for lr in (0.01, 0.02)]
        says = r"^minibatch 65 exceeds the 64 training rows of 80$"
        for methods in (("dplqr",), ("dnqr",)):
            with pytest.raises(ConfigError, match=says):
                run_experiment(spec, 2, methods=methods, master_seed=8234,
                               grid=grid, with_ci=False)

    def test_unknown_method_rejected(self):
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with pytest.raises(ConfigError):
            run_experiment(spec, 1, methods=("ols",), grid=_FAST)

    @pytest.mark.parametrize("methods", ["lqr", "dplqr", ""])
    def test_one_string_of_methods_rejected_as_given(self, methods):
        # a string is not a collection of method names: the error quotes
        # it whole, not its first letter
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with pytest.raises(ConfigError, match=f"the string {methods!r};"):
            run_experiment(spec, 1, methods=methods, grid=_FAST)

    @pytest.mark.parametrize("methods", [("lqr",), ("dplqr", "lqr")],
                             ids=["lqr", "dplqr-lqr"])
    def test_empty_grid_rejected(self, methods):
        # lqr tunes nothing, but it takes the grid's first entry
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with pytest.raises(ConfigError, match="^tuning grid is empty$"):
            run_experiment(spec, 1, methods=methods, grid=[])

    def test_invalid_level_rejected_before_fitting(self, monkeypatch):
        def no_replicate(args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(experiment, "_try_replicate", no_replicate)
        spec = DgpSpec(case=1, n=100, tau=0.5)
        for level in (1.5, 0.0, float("nan")):
            for with_ci in (True, False):
                with pytest.raises(ConfigError):
                    run_experiment(spec, 2, grid=_FAST, level=level,
                                   with_ci=with_ci)

    def test_zero_replicates_rejected(self):
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with pytest.raises(ConfigError):
            run_experiment(spec, 0, grid=_FAST)

    @pytest.mark.parametrize("name, value", [
        ("q", 1.5), ("q", True), ("q", "2"), ("workers", 1.5),
        ("workers", True), ("workers", None)])
    def test_non_integer_counts_rejected(self, name, value, monkeypatch):
        def no_replicate(args):
            raise AssertionError("a replicate ran")
        monkeypatch.setattr(experiment, "_try_replicate", no_replicate)
        counts = {"q": 2, "workers": 1}
        counts[name] = value
        spec = DgpSpec(case=1, n=100, tau=0.5)
        with pytest.raises(ConfigError,
                           match=f"{name} must be an integer, got"):
            run_experiment(spec, **counts, grid=_FAST, with_ci=False)

    def test_align_m_changes_rmse_only(self):
        spec = DgpSpec(case=1, n=200, tau=0.5)
        plain = run_experiment(spec, 2, master_seed=5, grid=_FAST,
                               with_ci=False, align_m=False)
        aligned = run_experiment(spec, 2, master_seed=5, grid=_FAST,
                                 with_ci=False, align_m=True)
        assert_allclose(plain.methods["dplqr"].bias,
                        aligned.methods["dplqr"].bias, rtol=0)
        # aligning subtracts the mean discrepancy, so it cannot hurt
        assert (aligned.methods["dplqr"].mean_rmse_m
                <= plain.methods["dplqr"].mean_rmse_m + 1e-12)


class TestReportOutput:
    def _report(self):
        spec = DgpSpec(case=1, n=200, tau=0.5)
        return run_experiment(spec, 2, methods=("dplqr", "dnqr"),
                              master_seed=4, grid=_FAST, with_ci=True)

    def test_report_holds_its_spec_and_grid(self):
        spec = DgpSpec(case=4, n=200, tau=0.3, sigma_x_terms="2x1")
        report = run_experiment(spec, 1, methods=("lqr",), master_seed=8251,
                                grid=tuple(_FAST), with_ci=False)
        assert report.spec is spec and report.grid == _FAST
        # a summary is filed under its method's name and does not repeat it
        assert list(report.methods) == ["lqr"]
        assert [f.name for f in fields(MethodSummary)] == [
            "bias", "sd", "coverage", "mean_rmse_m", "mean_mspe",
            "replicates"]

    def test_text_contains_methods_and_header(self):
        text = report_to_text(self._report())
        assert "case 1" in text and "n=200" in text
        assert "dplqr" in text and "dnqr" in text
        assert "rmse_m" in text

    @pytest.mark.parametrize("q, with_ci, dots, seed", [
        (2, True, {"dplqr": 0, "lqr": 0, "dnqr": 7}, 4513),
        (1, False, {"dplqr": 4, "lqr": 4}, 4514)])
    def test_text_cells_are_the_csv_values(self, tmp_path, q, with_ci,
                                           dots, seed):
        import csv
        methods = tuple(dots)
        report = run_experiment(DgpSpec(case=1, n=200, tau=0.5), q,
                                methods=methods, master_seed=seed,
                                grid=_FAST, with_ci=with_ci)
        path = tmp_path / "report.csv"
        report_to_csv(report, str(path))
        with open(path, newline="") as handle:
            csv_values = {tuple(r[3:6]): r[6]
                          for r in list(csv.reader(handle))[1:]}
        cells = [("bias", "1"), ("sd", "1"), ("coverage", "1"),
                 ("bias", "2"), ("sd", "2"), ("coverage", "2"),
                 ("rmse_m", ""), ("mspe", "")]
        want = []
        for method in methods:
            parts = [f"{method:>8}"]
            for metric, k in cells:
                value = csv_values.get((method, metric, k))
                parts.append("       ." if value is None
                             else f"{float(value):8.4f}")
            want.append("  ".join(parts))
        lines = report_to_text(report).split("\n")
        assert lines[2:] == want + [""]
        # the gaps: dnqr has no theta or z-function, one replicate no sd,
        # and a run without intervals no coverage
        assert {line.split()[0]: line.split().count(".")
                for line in lines[2:-1]} == dots

    def test_csv_round_trip(self, tmp_path):
        import csv
        report = self._report()
        path = tmp_path / "report.csv"
        report_to_csv(report, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        assert header == ["case", "n", "tau", "method", "metric",
                          "coefficient", "value"]
        metrics = {(r[3], r[4], r[5]) for r in body}
        assert ("dplqr", "bias", "1") in metrics
        assert ("dplqr", "coverage", "2") in metrics
        assert ("dnqr", "mspe", "") in metrics
        # numeric cells are repr round-trippable
        bias_cell = next(r[6] for r in body
                         if (r[3], r[4], r[5]) == ("dplqr", "bias", "1"))
        assert float(bias_cell) == report.methods["dplqr"].bias[0]
