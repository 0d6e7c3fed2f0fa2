"""Latency summaries shared by the benchmark parent, child and self-tests."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def tail_percentile(latencies, min_beyond: int = MIN_BEYOND):
    """Latency at the highest whole percentile with at least ``min_beyond``
    samples ranked above it.

    Uses the nearest-rank definition: percentile p is the sample at 1-based
    rank ceil(p * n / 100) of the sorted list.  Returns
    ``(value, p, beyond)``.  With fewer than 2 * min_beyond samples no
    percentile at or above 50 qualifies; the median is returned and
    ``beyond`` says how many samples really lie above it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    # p * n / 100 <= n - min_beyond, so the rank leaves min_beyond above it
    p = max((100 * (n - min_beyond)) // n, 50)
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n - rank


def error_rate(failed: int, attempted: int) -> float:
    """Laplace's rule-of-succession estimate (failed + 1) / (attempted + 2).

    Never 0, so a regression bound expressed as a share of the parent's
    value stays meaningful on a workload where nothing fails; a clean run
    reads 1 / (attempted + 2), the resolution of the run.
    """
    return (failed + 1) / (attempted + 2)
