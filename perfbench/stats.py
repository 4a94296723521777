"""Summaries of per-operation timings."""

import math
import statistics
from fractions import Fraction

PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it.

    Uses the nearest-rank rule: the p-th percentile of n sorted samples
    is the one at rank ceil(p/100 * n), and the samples beyond it are the
    n - rank that follow. Returns (p, value), or None below twenty
    samples, where not even the median has ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(Fraction(str(p)) * n / 100))
        if n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def describe(samples):
    """Median, tail percentile and sample count of a timing list."""
    tail = tail_percentile(samples)
    return {"median": statistics.median(samples), "count": len(samples),
            "tail_percentile": None if tail is None else tail[0],
            "tail_value": None if tail is None else tail[1]}
