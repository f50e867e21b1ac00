"""Sample statistics shared by the runner, the comparison and the tests.

Pure Python so that the comparison tool runs without numpy or ``repro``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles the benchmark may report, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples above it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_supported_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with ``SAMPLES_BEYOND`` samples above it."""
    for q in CANDIDATE_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 6) >= SAMPLES_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def busy_rates(latencies_ms: Sequence[float], window: int) -> List[float]:
    """Ops per second of busy time over consecutive windows of ``window`` ops.

    For one closed-loop caller, whose next op starts when the last one
    returns: the caller's own work between ops is not counted.  A trailing
    partial window is dropped.
    """
    return [
        window * 1000.0 / sum(latencies_ms[k:k + window])
        for k in range(0, len(latencies_ms) - window + 1, window)
    ]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample (for the detailed report)."""
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}
