"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics


def median(values):
    return float(statistics.median(values))


def tail_percentile(samples, beyond=10):
    """Highest percentile of ``samples`` with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``.  In sorted order the sample at 1-based
    rank ``n - beyond`` has exactly ``beyond`` samples after it, and no
    higher rank has as many.  With fewer than ``2 * beyond`` samples that
    rank lies below the median, which is no tail (at n = beyond + 1 it is
    the minimum); the maximum is returned as the 100th percentile then.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond:
        return 100.0, xs[-1]
    rank = n - beyond
    return 100.0 * rank / n, xs[rank - 1]

