"""Summary statistics shared by the benchmark and its steadiness report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """The highest percentile that has at least ``TAIL_BEYOND`` values
    beyond it: the (n - 10)-th smallest of n values.

    Returns (value, percentile, number of values beyond it).  With ten
    values or fewer no percentile qualifies; the maximum is returned with
    percentile 100 and the count of values actually beyond it, 0.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("no values")
    if n <= TAIL_BEYOND:
        return vals[-1], 100.0, 0
    k = n - TAIL_BEYOND                 # 1-based rank
    return vals[k - 1], 100.0 * k / n, n - k


def spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1)/median) with ``statistics.quantiles``'
    default (exclusive) method, as the acceptance check computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")
