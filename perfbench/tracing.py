"""Spans around the public functions of each dplqr module.

The benchmark records spans from its own files: `patched` replaces each
traced function, in every dplqr module that holds it (modules import
names directly, as in `from .model import fit`), with a wrapper that
records one span per call, and puts the originals back on exit.

A span is a tuple (name, start, end, parent, op, attrs): the layer name
("network.forward_batch"), perf_counter start and end, the index of the
enclosing span or None, the id of the operation (replicate or CLI call)
it belongs to, and a dict of counts taken from the call's arguments or
result, or None. Tuples of plain values cost the garbage collector
nothing once untracked, which keeps a million spans cheap to hold.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, ATTRS = range(6)


def dense_flops(rows, widths):
    """Computed flops of a forward pass: 2*rows*sum((fan_in+1)*fan_out).

    Each layer multiplies the bias-augmented input (fan_in+1 columns) by
    a (fan_in+1, fan_out) block, one multiply and one add per term.
    """
    return 2 * rows * sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:]))


def backward_flops(rows, widths):
    """Computed flops of network.backward_batch.

    backward_batch repeats the forward pass, forms one weight gradient
    per layer (the same size as that layer's forward product), and
    propagates the delta through every layer but the first.
    """
    propagate = 2 * rows * sum(a * b for a, b in zip(widths[1:-1], widths[2:]))
    return 2 * dense_flops(rows, widths) + propagate


_forward_flops = functools.lru_cache(maxsize=256)(dense_flops)
_backward_flops = functools.lru_cache(maxsize=256)(backward_flops)


def _forward_attrs(args, kwargs, result):
    rows = len(result)
    return {"rows": rows, "flop": _forward_flops(rows, args[0].widths)}


def _backward_attrs(args, kwargs, result):
    rows = len(args[1])
    return {"rows": rows, "flop": _backward_flops(rows, args[0].widths)}


def _predict_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _train_attrs(args, kwargs, result):
    history = result[2]
    return {"epochs": history.stopped_epoch,
            "wasted": history.stopped_epoch - history.best_epoch}


def _tune_attrs(args, kwargs, result):
    return {"candidates": len(args[0])}


def _load_csv_attrs(args, kwargs, result):
    return {"rows": result.n}


# (module, function, attrs) for every traced public function, by layer.
LAYERS = (
    ("network", "forward_batch", _forward_attrs),
    ("network", "backward_batch", _backward_attrs),
    ("optimizer", "adam_step", None),
    ("optimizer", "train_joint", _train_attrs),
    ("optimizer", "epoch_batches", None),
    ("optimizer", "tune", _tune_attrs),
    ("quantile_loss", "mean_check_loss", None),
    ("model", "fit", None),
    ("model", "predict_batch", _predict_attrs),
    ("inference", "covariance", None),
    ("inference", "fit_projection", None),
    ("inference", "kde_at_zero", None),
    ("experiment", "run_experiment", None),
    ("dgp", "generate", None),
    ("modelio", "load_csv", _load_csv_attrs),
    ("modelio", "load_model", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans in memory; `op` tags the spans of the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = [None]

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent, index = stack[-1], len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, self.op, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            counts = None if attrs is None else attrs(args, kwargs, result)
            spans[index] = (name, start, end, parent, self.op, counts)
            return result

        traced.__wrapped__ = fn
        return traced


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "dplqr" or name.startswith("dplqr.")]


@contextmanager
def patched(tracer, layers=LAYERS):
    """Trace every function in `layers` wherever a dplqr module holds it.

    A function is found by identity, so aliases (`fit as fit_model`) are
    covered too. Every replaced attribute is restored on exit.
    """
    homes = [importlib.import_module(f"dplqr.{module}") for module, _, _ in layers]
    modules = _package_modules()
    undo = []
    try:
        for home, (module_name, fn_name, attrs) in zip(homes, layers):
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START]
            - _covered(children.get(i, ()), span[START], span[END])
            for i, span in enumerate(spans)]


class LayerTotals:
    """Per-name sums over spans: calls, inclusive and self seconds, attrs."""

    def __init__(self, spans):
        selfs = self_times(spans)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.attrs = defaultdict(lambda: defaultdict(int))
        for span, own in zip(spans, selfs):
            name = span[NAME]
            self.calls[name] += 1
            self.total_s[name] += span[END] - span[START]
            self.self_s[name] += own
            for key, value in (span[ATTRS] or {}).items():
                self.attrs[name][key] += value
        self.selfs = selfs

    def attr(self, name, key):
        return self.attrs[name][key] if name in self.attrs else 0
