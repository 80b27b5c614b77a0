"""Metric arithmetic shared by the benchmark sections.

Pure functions only: no clocks, no I/O, so ``test_metrics.py`` can pin
every formula the benchmark reports.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence, Tuple


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence.

    The value at rank ``ceil(q/100 * n)``: always an observed sample,
    never an interpolation.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Iterable[float], q: float) -> Dict[str, float]:
    """The ``q``-th percentile with the sample count behind it.

    ``beyond`` is how many samples lie above the percentile's rank: a
    percentile with fewer than ten samples beyond it says little.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered))) if ordered else 0
    return {
        "value": nearest_rank(ordered, q),
        "samples": len(ordered),
        "beyond": len(ordered) - rank,
    }


def covered_share(
    intervals: Iterable[Tuple[float, float]], start: float, end: float
) -> float:
    """Share of ``[start, end]`` covered by the union of ``intervals``.

    Overlapping intervals (concurrent lease sessions) count once; parts
    outside the window are clipped.
    """
    wall = end - start
    if wall <= 0:
        raise ValueError(f"empty window [{start}, {end}]")
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / wall


def ok_share(attempted: int, failed: int) -> float:
    """Share of attempted operations that did not fail."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return (attempted - failed) / attempted


def rung_passes(rung: Dict[str, float], p99_limit_ms: float) -> bool:
    """A rung meets the limit: p99 within it, nothing failed, backlog drained."""
    return (
        rung["failed"] == 0
        and rung["drained"]
        and rung["p99_ms"] <= p99_limit_ms
    )


def max_rps(rungs: Sequence[Dict[str, float]], p99_limit_ms: float) -> float:
    """Measured grant rate of the highest-rate rung that meets the limit.

    A failing rung does not end the search: a higher rung that passes
    still counts, as the limit is judged per rung.  ``0.0`` when none
    passes.
    """
    passing = [r for r in rungs if rung_passes(r, p99_limit_ms)]
    if not passing:
        return 0.0
    return max(passing, key=lambda r: r["rate"])["granted_per_s"]


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
