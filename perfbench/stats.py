"""Small summary statistics shared by the harness and its tests."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for a timing's tail, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def highest_percentile(n: int) -> float | None:
    """Highest percentile of ``TAIL_PERCENTILES`` with at least ten of ``n``
    samples beyond it, or None when even the median lacks that support."""
    best = None
    for p in TAIL_PERCENTILES:
        # round() guards against 100 * (1 - 0.999) landing just under an integer
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
