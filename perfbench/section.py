"""What every benchmark section shares: its result, failed checks, rounds.

A section runs in rounds.  ``run.py`` interleaves the sections' rounds so
that a slow spell of the machine lands on one round of every section,
and each rate the sections report is the median over their rounds.  The
interpreter-bound sections also sample the machine's speed on either
side of each timed unit (:mod:`calibrate`) and report their rates at the
reference speed, next to the raw wall-clock rates.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from tracing import Recorder


class CheckFailed(Exception):
    """An output check failed: the run must report no numbers."""


@dataclass
class SectionResult:
    """One section's measurements from one pass.

    ``metrics`` holds end-to-end values, ``layer`` per-layer values (traced
    passes only), ``counts`` the deterministic counts a traced pass must
    reproduce exactly, ``setup`` the set-up times the section paid and
    ``speeds`` the machine speed samples taken between timed units.
    """

    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    setup: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


@contextmanager
def instrumented(
    recorder: Optional[Recorder], install: Callable[[Recorder], None]
) -> Iterator[None]:
    """Install a section's wrappers for one round, then remove them.

    Wrappers stay off outside their section's rounds, so one section's
    layers never collect time spent in another's.
    """
    if recorder is None:
        yield
        return
    install(recorder)
    try:
        yield
    finally:
        recorder.restore()


def median_rate(amounts: List[float], seconds: List[float]) -> float:
    """Median over rounds of amount per second."""
    return statistics.median(a / s for a, s in zip(amounts, seconds))


def at_reference_speed(seconds: List[float], speeds: List[float]) -> List[float]:
    """Wall times rescaled to what they would be at the reference speed.

    ``speeds[i]`` is the mean :func:`calibrate.speed` on either side of
    the unit that took ``seconds[i]``.
    """
    return [s * v for s, v in zip(seconds, speeds)]
