"""Thread-per-process execution of the same generator algorithms.

The simulator is the measurement instrument; this backend demonstrates
the algorithms are *runnable artifacts*: each process becomes a real
thread, shared registers live in a lock-protected
:class:`~repro.runtime.registers.SharedStore`, and ``delay(d)`` becomes a
wall-clock sleep of ``d * time_unit`` seconds.

On CPython, GIL scheduling is itself a source of timing jitter — step
times occasionally blow through any optimistic bound — which makes this
backend a natural end-to-end test of the resilience claims: Algorithm 1
must never disagree, and Algorithm 3 must never lose mutual exclusion,
no matter what the host scheduler does.  The executor records realized
step gaps so callers can inspect the empirical ``Δ`` and count how many
steps violated the optimistic bound they configured.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.ops import Op
from ..sim.process import Program
from ..sim.trace import EventKind
from .registers import SharedStore

__all__ = ["ThreadedExecutor", "ThreadedRunResult", "ThreadEvent"]


@dataclass(frozen=True)
class ThreadEvent:
    """A label observed during a threaded run (wall-clock timestamped)."""

    pid: int
    kind: str
    payload: Any
    at: float  # monotonic seconds


@dataclass
class ThreadedRunResult:
    """Outcome of one threaded execution."""

    returns: Dict[int, Any]
    errors: Dict[int, BaseException]
    events: List[ThreadEvent]
    store: SharedStore
    wall_time: float
    measured_delta_max: float
    measured_delta_p99: float

    @property
    def ok(self) -> bool:
        return not self.errors

    def decisions(self) -> Dict[int, Any]:
        from ..sim import ops as op_defs

        out: Dict[int, Any] = {}
        for event in self.events:
            if event.kind == op_defs.DECIDED:
                out.setdefault(event.pid, event.payload)
        return out

    def cs_overlap_detected(self) -> bool:
        """Whether two threads were ever inside their CS simultaneously.

        Uses the CS_ENTER/CS_EXIT events' wall-clock order; ties resolved
        conservatively (no overlap claimed for zero-length coincidences).
        """
        from ..sim import ops as op_defs

        intervals: List[Tuple[float, float, int]] = []
        open_by_pid: Dict[int, float] = {}
        for event in sorted(self.events, key=lambda e: e.at):
            if event.kind == op_defs.CS_ENTER:
                open_by_pid[event.pid] = event.at
            elif event.kind == op_defs.CS_EXIT:
                start = open_by_pid.pop(event.pid, None)
                if start is not None:
                    intervals.append((start, event.at, event.pid))
        intervals.sort()
        for (s1, e1, p1), (s2, e2, p2) in zip(intervals, intervals[1:]):
            if p1 != p2 and s2 < e1:
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"ThreadedRunResult(ok={self.ok}, processes={len(self.returns)}, "
            f"wall={self.wall_time:.3f}s, "
            f"measured_delta_max={self.measured_delta_max * 1e3:.3f}ms)"
        )


class ThreadedExecutor:
    """Run generator programs on real threads.

    Parameters
    ----------
    time_unit:
        Wall-clock seconds per simulated time unit: ``delay(d)`` sleeps
        ``d * time_unit``.  Keep it small (default 1 ms) so tests finish
        quickly; the algorithms' safety cannot depend on it.
    """

    def __init__(self, time_unit: float = 1e-3) -> None:
        if time_unit <= 0:
            raise ValueError(f"time_unit must be positive, got {time_unit}")
        self.time_unit = time_unit
        self.store = SharedStore()
        self._programs: Dict[int, Program] = {}

    def spawn(self, program: Program, pid: Optional[int] = None) -> int:
        if pid is None:
            pid = len(self._programs)
        if pid in self._programs:
            raise ValueError(f"pid {pid} already spawned")
        self._programs[pid] = program
        return pid

    def run(self, timeout: float = 60.0) -> ThreadedRunResult:
        """Start every process, join them all, and report."""
        returns: Dict[int, Any] = {}
        errors: Dict[int, BaseException] = {}
        events: List[ThreadEvent] = []
        events_lock = threading.Lock()
        store = self.store
        time_unit = self.time_unit

        def interpret(pid: int, program: Program) -> None:
            send_value: Any = None
            try:
                while True:
                    try:
                        op = program.send(send_value)
                    except StopIteration as stop:
                        returns[pid] = stop.value
                        return
                    send_value = None
                    if not isinstance(op, Op) or op.is_message:
                        raise TypeError(f"pid {pid} yielded a non-operation: {op!r}")
                    if op.is_shared:
                        send_value = store.apply(pid, op)
                    elif op.kind == EventKind.LABEL:
                        with events_lock:
                            events.append(
                                ThreadEvent(pid, op.name, op.payload,
                                            time.monotonic())
                            )
                    elif op.kind == EventKind.DELAY or op.duration > 0:
                        time.sleep(op.duration * time_unit)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[pid] = exc

        threads = [
            threading.Thread(
                target=interpret, args=(pid, program), name=f"repro-p{pid}",
                daemon=True,
            )
            for pid, program in self._programs.items()
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        deadline = started + timeout
        for thread in threads:
            remaining = deadline - time.monotonic()
            thread.join(max(0.0, remaining))
        wall = time.monotonic() - started
        alive = [t for t in threads if t.is_alive()]
        if alive:
            raise TimeoutError(
                f"{len(alive)} process thread(s) still running after "
                f"{timeout}s: {[t.name for t in alive]}"
            )
        delta_max, delta_p99 = store.measured_delta()
        return ThreadedRunResult(
            returns=returns,
            errors=errors,
            events=events,
            store=store,
            wall_time=wall,
            measured_delta_max=delta_max,
            measured_delta_p99=delta_p99,
        )
