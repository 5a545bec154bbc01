"""Metric maths shared by every workload: percentiles, means, shares.

Kept free of numpy and of the program under test so the unit tests in
``perfbench/tests`` check the arithmetic on its own.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = [
    "percentile",
    "samples_beyond",
    "median",
    "mean",
    "gmean",
    "share",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` per cent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile; a percentile is reported only when this is >= 10."""
    if n < 1:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def median(values: Iterable[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("mean of an empty sample")
    return float(sum(vals) / len(vals))


def gmean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (compression ratios)."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric mean of an empty sample")
    if min(vals) <= 0:
        raise ValueError("geometric mean needs positive values")
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def share(part: float, whole: float) -> float:
    """``part / whole`` for counts; a share of nothing is an error."""
    if whole <= 0:
        raise ValueError("share of an empty total")
    return float(part) / float(whole)
