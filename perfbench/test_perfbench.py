"""Self-tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
from stats import describe, tail_percentile  # noqa: E402
from tracing import (LAYERS, NAME, PARENT, LayerTotals, Tracer,  # noqa: E402
                     backward_flops, dense_flops, patched, self_times)


def span(name, start, end, parent=None):
    return (name, start, end, parent, 0, None)


def test_self_time_nested_and_sibling_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b.child", 5.0, 6.0, parent=2),
        span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, parent=0),
             span("b", 3.0, 6.0, parent=0), span("c", 9.0, 12.0, parent=0)]
    # children cover [1, 6] and [9, 10] of the root's interval
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parents_ops_and_attrs():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        attrs=lambda args, kwargs, result: {"rows": result})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op = 7
    assert outer(1) == 4
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][PARENT] == 0 and tracer.spans[0][PARENT] is None
    totals = LayerTotals(tracer.spans)
    assert totals.calls["inner"] == 1 and totals.attr("inner", "rows") == 2
    assert all(s[4] == 7 for s in tracer.spans)


def test_tracer_records_a_raising_call_and_unwinds():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)
    with pytest.raises(ValueError):
        failing()
    after = tracer.wrap("after", lambda: None)
    after()
    assert [s[NAME] for s in tracer.spans] == ["failing", "after"]
    assert tracer.spans[1][PARENT] is None


def _holders(fn):
    found = []
    for name in sorted(sys.modules):
        if name == "dplqr" or name.startswith("dplqr."):
            module = importlib.import_module(name)
            found += [(module, attr) for attr, value in vars(module).items()
                      if value is fn]
    return found


def test_every_holder_is_patched_and_restored():
    homes = {m: importlib.import_module(f"dplqr.{m}") for m, _, _ in LAYERS}
    originals = {(m, f): getattr(homes[m], f) for m, f, _ in LAYERS}
    holders = {key: _holders(fn) for key, fn in originals.items()}
    # names imported directly into other modules must be among the holders
    expected = [("modelio", "load_csv", "dplqr.cli", "load_csv"),
                ("model", "fit", "dplqr.experiment", "fit"),
                ("model", "fit", "dplqr.cli", "fit_model"),
                ("optimizer", "tune", "dplqr.experiment", "tune"),
                ("inference", "covariance", "dplqr.experiment", "covariance"),
                ("optimizer", "train_joint", "dplqr.inference", "train_joint"),
                ("network", "forward_batch", "dplqr.inference", "forward_batch"),
                ("network", "forward_batch", "dplqr.model", "forward_batch")]
    for module, fn, holder, attr in expected:
        assert (sys.modules[holder], attr) in holders[(module, fn)]

    with patched(Tracer()):
        for key, places in holders.items():
            assert _holders(originals[key]) == []
            for module, attr in places:
                assert getattr(module, attr).__wrapped__ is originals[key]
    for key, places in holders.items():
        assert _holders(originals[key]) == places


def test_traced_tune_reaches_lazily_imported_fit():
    from dplqr import model, optimizer
    from dplqr.rng import make_rng

    rng = make_rng(3)
    x = rng.normal(size=(60, 1))
    z = rng.uniform(size=(60, 2))
    data = model.Dataset(x[:, 0] + z[:, 0], x, z)
    grid = [optimizer.TrainConfig(depth=2, width=4, epochs=2, minibatch=16,
                                  learning_rate=lr) for lr in (0.01, 0.02)]
    tracer = Tracer()
    with patched(tracer):
        optimizer.tune(grid, data, 0.5, make_rng(4))
    spans = tracer.spans
    fits = [i for i, s in enumerate(spans) if s[NAME] == "model.fit"]
    assert len(fits) == 2
    assert all(spans[spans[i][PARENT]][NAME] == "optimizer.tune" for i in fits)
    names = {s[NAME] for s in spans}
    assert {"optimizer.train_joint", "network.forward_batch",
            "network.backward_batch", "optimizer.adam_step"} <= names


def test_flop_formula_on_a_known_width_chain():
    widths = (10, 32, 32, 1)
    # (10+1)*32 + (32+1)*32 + (32+1)*1 = 1441 multiply-adds per row
    assert dense_flops(128, widths) == 2 * 128 * 1441
    # plus weight gradients (same size) and the delta through layers 2 and 3
    assert backward_flops(128, widths) == 2 * (2 * 128 * 1441) + 2 * 128 * (32 * 32 + 32 * 1)

    from dplqr.network import init_params
    from dplqr.rng import make_rng

    layers = init_params(widths, make_rng(0)).layers
    assert dense_flops(128, widths) == sum(2 * 128 * w.size for w in layers)


@pytest.mark.parametrize("n, expected", [
    (10, None), (11, None), (20, 50), (39, 50), (40, 75), (100, 90),
    (200, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond_it(n, expected):
    samples = list(range(1, n + 1))
    result = tail_percentile(samples[::-1])
    if expected is None:
        assert result is None
        return
    p, value = result
    assert p == expected
    assert sum(s > value for s in samples) >= 10


def test_describe_reports_median_and_count():
    info = describe([3.0, 1.0, 2.0, 10.0])
    assert info["median"] == 2.5 and info["count"] == 4
    assert info["tail_percentile"] is None


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = LayerTotals([])
    ops = [run.Op(0, 1.0, None, None)]
    layer = run.per_layer(empty, ops, ops, 0.5, 0.1)
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    e2e = run.end_to_end([1.0], ops)
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    assert np.isfinite(list(e2e.values())).all()
