"""Sample statistics shared by the benchmark runner and the comparator.

Timings are reported as a median and a tail percentile (nearest rank).
A tail level may be reported only when at least ``MIN_BEYOND`` samples
lie beyond it: 100 samples allow p90, 1000 allow p99.  A run with too
few samples still computes the value, and the report flags it.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def _rank(n: int, level: float) -> int:
    """1-based nearest rank of ``level`` among ``n`` (float-error safe)."""
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def percentile(samples, level: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``level``% at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(len(xs), level) - 1]


def beyond(n: int, level: float) -> int:
    """How many of ``n`` samples lie strictly above the ``level`` percentile rank."""
    return n - _rank(n, level)


def tail_ok(n: int, level: float) -> bool:
    """Whether ``n`` samples satisfy the rule for reporting ``level``."""
    return beyond(n, level) >= MIN_BEYOND if n else False


def median_or_zero(samples) -> float:
    """Median of ``samples``, or 0.0 when there are none."""
    return statistics.median(samples) if samples else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
