"""Shared latency-summary math.

One implementation of the percentile / distribution-summary helpers
for every consumer: the serving stats (:mod:`repro.serve.stats`
re-exports :func:`percentile` for backward compatibility), the
metrics registry's histogram snapshots, and the benchmarks.  Keeping
the math here means a p95 in a serving report, a metrics export and a
bench table are always the same quantity.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

#: The percentiles a distribution summary reports, in order.
SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(sorted_values: List[float], p: float) -> float:
    """Linear-interpolation percentile of pre-sorted values,
    ``p`` in [0, 100]."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def ordered_sum(values: Iterable[float]) -> float:
    """Sum from left to right, rounding after every addition.

    CPython 3.12 made the built-in ``sum()`` of floats compensated, so
    its result can differ in the last bit from this plain loop, which
    is what ``sum()`` computed up to 3.11.  Simulated times and report
    totals that same-seed digests cover are summed here, so those
    digests hold on every interpreter.  An empty input sums to ``0``,
    as with ``sum()``.
    """
    total = 0
    for value in values:
        total += value
    return total


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Distribution summary of raw (unsorted) observations.

    Returns count/sum/min/mean/max plus the
    :data:`SUMMARY_PERCENTILES` as ``p50``/``p95``/``p99`` — the shape
    every histogram snapshot in the metrics registry exports.  An
    empty input summarises to all zeros.  Non-finite observations
    (NaN / inf) are rejected: a NaN silently poisons sort order and
    every derived percentile, so failing loudly here keeps snapshots
    trustworthy.
    """
    if not values:
        return {"count": 0, "sum": 0.0, "min": 0.0, "mean": 0.0, "max": 0.0,
                **{f"p{int(p)}": 0.0 for p in SUMMARY_PERCENTILES}}
    if not all(math.isfinite(v) for v in values):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"summarize requires finite values, got {bad}")
    ordered = sorted(values)
    total = ordered_sum(ordered)
    out = {
        "count": len(ordered),
        "sum": total,
        "min": ordered[0],
        "mean": total / len(ordered),
        "max": ordered[-1],
    }
    for p in SUMMARY_PERCENTILES:
        out[f"p{int(p)}"] = percentile(ordered, p)
    return out
