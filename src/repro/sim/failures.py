"""Failure descriptions: timing-failure windows and crash schedules.

The paper considers two kinds of adversity:

* **timing failures** — a step (one shared-memory access) takes longer
  than the known bound ``Δ``.  We describe these as
  :class:`TimingFailureWindow` intervals during which affected processes'
  steps are stretched beyond ``Δ``;
* **process crashes** — a process permanently stops taking steps
  (Algorithm 1 is wait-free, so it must tolerate any number of these).
  We describe these with a :class:`CrashSchedule`.

Both descriptions are pure data; :mod:`repro.sim.timing` and
:mod:`repro.sim.engine` interpret them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "TimingFailureWindow",
    "WindowIndex",
    "CrashSchedule",
    "RecoverSchedule",
    "MemoryFault",
    "failure_window",
    "merge_windows",
]


@dataclass(frozen=True)
class TimingFailureWindow:
    """An interval during which steps violate the timing assumption.

    Any shared-memory step *issued* at a time ``t`` with
    ``start <= t < end`` by an affected process takes ``stretch`` times its
    nominal duration (or exactly ``duration`` time units when given).  A
    window with ``pids=None`` affects every process.

    To actually constitute a timing failure in the paper's sense the
    resulting duration must exceed ``Δ``; the constructor cannot check that
    (it does not know ``Δ``), but :meth:`violates_delta` lets callers
    assert it.
    """

    start: float
    end: float
    pids: Optional[FrozenSet[int]] = None
    stretch: float = 1.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        # `not (x >= y)` also rejects NaN, which `x < y` lets through: a
        # NaN bound or factor would make a window that silently affects
        # nothing.
        if not (self.end >= self.start):
            raise ValueError(
                f"window needs start <= end, got start={self.start}, end={self.end}"
            )
        if not (self.stretch >= 1.0):
            raise ValueError(f"stretch must be >= 1, got {self.stretch}")
        if self.duration is not None and not (self.duration > 0):
            raise ValueError(f"duration must be positive, got {self.duration}")

    def affects(self, pid: int, now: float) -> bool:
        """True when a step issued by ``pid`` at time ``now`` is affected."""
        if not (self.start <= now < self.end):
            return False
        return self.pids is None or pid in self.pids

    def apply(self, nominal: float) -> float:
        """The stretched duration of a step whose nominal duration is given."""
        if self.duration is not None:
            return max(nominal, self.duration)
        return nominal * self.stretch

    def violates_delta(self, delta: float, nominal: float) -> bool:
        """Whether the window turns a nominal-duration step into a failure."""
        return self.apply(nominal) > delta


class WindowIndex:
    """The windows covering each instant, built once, looked up by bisection.

    The start and end of every window with ``start < end`` cut the time
    axis into elementary segments ``[b_k, b_{k+1})``; inside one segment
    the set of windows with ``start <= t < end`` is constant, so it is
    stored once per segment.  Appending each window, in the given order,
    to the segments between its own two boundaries keeps every segment in
    that order and costs O(W log W + output).  :meth:`covering` is then a
    single ``bisect_right`` instead of a scan over every window.
    Zero-length windows cover no instant and are left out.
    """

    __slots__ = ("_bounds", "_segments")

    def __init__(self, windows: Iterable[TimingFailureWindow]) -> None:
        live = [w for w in windows if w.start < w.end]
        bounds = sorted({t for w in live for t in (w.start, w.end)})
        # Segment k covers [bounds[k-1], bounds[k]); segment 0 answers
        # every instant before the first boundary and stays empty.
        slot = {t: k for k, t in enumerate(bounds, 1)}
        segments: List[list] = [[] for _ in range(len(bounds) + 1)]
        for w in live:
            for k in range(slot[w.start], slot[w.end]):
                segments[k].append(w)
        self._bounds = bounds
        self._segments = [tuple(segment) for segment in segments]

    def covering(self, now: float) -> Tuple[TimingFailureWindow, ...]:
        """The windows with ``start <= now < end``, in their given order."""
        return self._segments[bisect_right(self._bounds, now)]


def failure_window(
    start: float,
    end: float,
    pids: Optional[Iterable[int]] = None,
    stretch: float = 1.0,
    duration: Optional[float] = None,
) -> TimingFailureWindow:
    """Convenience constructor accepting any iterable of pids."""
    frozen = None if pids is None else frozenset(pids)
    return TimingFailureWindow(start, end, frozen, stretch, duration)


def merge_windows(
    windows: Sequence[TimingFailureWindow],
) -> List[Tuple[float, float]]:
    """Collapse windows into a sorted list of disjoint (start, end) spans.

    Used to compute "the last instant at which a timing failure may occur",
    after which the convergence clock of the resilience checker starts.

    Zero-length windows (``start == end``) affect no step — a step issued
    at ``t`` is affected only when ``start <= t < end`` — so they are
    dropped rather than surfacing as degenerate spans; exactly-abutting
    windows (one ends where the next starts) coalesce into one span.
    """
    spans = sorted((w.start, w.end) for w in windows if w.end > w.start)
    merged: List[Tuple[float, float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class MemoryFault:
    """A transient memory failure: a register spontaneously changes value.

    The paper's Discussion lists "both (transient) memory failures and
    timing failures" as an extension; this is the injection primitive for
    exploring it.  At virtual time ``at`` the register named by the handle
    ``register`` is overwritten with ``value``, independent of any
    process.  The corruption linearizes like a write at that instant and
    is recorded in the trace as a ``fault`` event.

    The paper's algorithms are NOT claimed resilient to these — the test
    suite documents which corruptions they happen to survive (e.g. stale
    round flags after a decision) and which they do not (a corrupted
    ``decide`` register forges decisions).
    """

    at: float
    register: object  # a Register handle
    value: object

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")


@dataclass
class CrashSchedule:
    """When (if ever) each process crashes.

    A crash is modelled as the process permanently ceasing to take steps.
    Two triggers are supported and may be combined; whichever fires first
    wins:

    * ``at_time[pid]`` — the process crashes at that virtual time (it will
      not *complete* any shared-memory step whose linearization point would
      fall at or after the crash time, and takes no further steps);
    * ``after_steps[pid]`` — the process crashes immediately after
      completing that many shared-memory steps (0 means it never takes a
      step at all).
    """

    at_time: Dict[int, float] = field(default_factory=dict)
    after_steps: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pid, t in self.at_time.items():
            # `not (t >= 0)` also rejects NaN, which `t < 0` lets through.
            if not (t >= 0):
                raise ValueError(f"crash time for pid {pid} must be >= 0, got {t}")
        for pid, k in self.after_steps.items():
            if not (k >= 0):
                raise ValueError(f"crash step for pid {pid} must be >= 0, got {k}")

    def crash_time(self, pid: int) -> float:
        """The scheduled crash time of ``pid`` (``inf`` when none)."""
        return self.at_time.get(pid, math.inf)

    def crash_step(self, pid: int) -> float:
        """The scheduled crash step-count of ``pid`` (``inf`` when none)."""
        return self.after_steps.get(pid, math.inf)

    def crashes(self, pid: int) -> bool:
        return pid in self.at_time or pid in self.after_steps

    @classmethod
    def none(cls) -> "CrashSchedule":
        """A schedule with no crashes."""
        return cls()

    @classmethod
    def crash_all_but(
        cls, survivor: int, pids: Iterable[int], after_steps: int = 0
    ) -> "CrashSchedule":
        """Crash everyone except ``survivor`` after ``after_steps`` steps."""
        return cls(after_steps={p: after_steps for p in pids if p != survivor})


@dataclass
class RecoverSchedule:
    """When (if ever) each crashed process restarts.

    The crash-recovery model: a restarting process gets a **fresh program
    instance** (all local/volatile state lost — the generator is rebuilt
    from its factory) while **shared registers persist** across the crash.
    This is the model of recoverable-object work (Golab's recoverable
    consensus) layered on the paper's crash model.

    ``at_time[pid]`` — the process restarts at that virtual time.  A
    restart scheduled for a process that never crashed, or that finished
    before its crash fired, is a no-op; a restart scheduled *before* the
    crash time is also a no-op (the engine only restarts CRASHED
    processes).  One restart per pid: a recovered process that crashes
    again stays down.
    """

    at_time: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pid, t in self.at_time.items():
            # `not (t >= 0)` also rejects NaN, which `t < 0` lets through.
            if not (t >= 0):
                raise ValueError(f"recover time for pid {pid} must be >= 0, got {t}")

    def recover_time(self, pid: int) -> float:
        """The scheduled restart time of ``pid`` (``inf`` when none)."""
        return self.at_time.get(pid, math.inf)

    def recovers(self, pid: int) -> bool:
        return pid in self.at_time

    @classmethod
    def none(cls) -> "RecoverSchedule":
        """A schedule with no restarts."""
        return cls()
