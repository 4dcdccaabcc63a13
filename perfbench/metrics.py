"""The benchmark's own arithmetic: tail percentiles, ratios, medians, Jain.

Kept free of any ``repro`` import so the unit tests exercise it alone.
"""

from __future__ import annotations

import math
import statistics

#: percentiles the tail rule may report, highest first
LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10
#: one host-reference kernel call on a quiet 2-vCPU x86-64 Xeon container
#: under CPython 3.11: the speed that ``at_ref_speed`` scales times to
REF_NOMINAL_S = 560e-6


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def tail(values, wanted: float = 0.99) -> tuple[float | None, float | None, int]:
    """``(q, value, n)`` for the highest percentile <= ``wanted`` that has
    at least :data:`MIN_BEYOND` samples beyond it.

    ``q`` and ``value`` are None when the sample is too small for any
    percentile on the ladder (fewer than 20 samples).
    """
    n = len(values)
    for q in LADDER:
        if q <= wanted and round(n * (1.0 - q), 9) >= MIN_BEYOND:
            return q, percentile(values, q), n
    return None, None, n


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted (``den == 0``)."""
    return num / den if den else 0.0


def median(values) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def at_ref_speed(seconds: float, ref_seconds: float) -> float:
    """``seconds`` measured while a reference call took ``ref_seconds``,
    scaled to a core on which it takes :data:`REF_NOMINAL_S`."""
    return seconds * REF_NOMINAL_S / ref_seconds


def ops_per_ref(ops, seconds, ref_seconds) -> float:
    """Ops per reference time: ``sum(ops) / sum(seconds_i / ref_i)``.

    Round ``i`` completed ``ops[i]`` ops in ``seconds[i]`` of wall time
    while one reference-kernel call took ``ref_seconds[i]``; dividing
    each round's time by its reference removes how fast the core ran
    during that round, and leaves how much work the program needed.
    """
    return ratio(sum(ops), sum(t / r for t, r in zip(seconds, ref_seconds)))


def jain(values) -> float:
    """Jain's fairness index; 0.0 for an empty or all-zero allocation."""
    xs = list(values)
    square_sum = sum(x * x for x in xs)
    return ratio(sum(xs) ** 2, len(xs) * square_sum)
