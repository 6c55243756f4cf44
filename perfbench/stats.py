"""Summary statistics used by every workload (no numpy, no repro)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a timing may be reported at, lowest first
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it.  A sample too small for any falls back to the
    median, which is then the only honest summary."""
    best = LADDER[0]
    for q in LADDER:
        if round(n * (100.0 - q), 6) >= MIN_BEYOND * 100.0:
            best = q
    return best


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(q, value)``: the sample's highest supported percentile."""
    q = supported_percentile(len(values))
    return q, percentile(values, q)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def summary(values: Sequence[float]) -> dict:
    """``{n, p50, q1, q3, min, max, tail_q, tail}`` of a sample."""
    q1, q2, q3 = quartiles(values)
    tq, tv = tail(values)
    return {
        "n": len(values),
        "p50": q2,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "tail_q": tq,
        "tail": tv,
    }
