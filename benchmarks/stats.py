"""Order statistics shared by the benchmark, its steadiness report and compare."""

from __future__ import annotations

import statistics


def tail(samples, beyond=10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n). With n samples sorted ascending, the
    sample at 1-based rank n - beyond has exactly `beyond` samples above
    it; its percentile is 100 * rank / n. With too few samples the tail
    is undefined and the largest sample stands in, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond
    if rank < 1:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

