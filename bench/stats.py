"""Order statistics shared by the runner and the compare command."""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default), p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """The highest whole percentile with at least TAIL_MIN_BEYOND samples
    beyond it, or None when the sample is too small to have one."""
    if n <= TAIL_MIN_BEYOND:
        return None
    return float(math.floor(100.0 * (n - TAIL_MIN_BEYOND) / n))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3
