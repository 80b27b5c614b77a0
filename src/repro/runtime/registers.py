"""Lock-protected atomic registers for the thread backend.

CPython's GIL makes individual dict operations atomic in practice, but we
do not rely on that implementation detail: a single lock around the
store's :class:`~repro.sim.registers.Memory` gives honest linearizability
(each op's ``apply`` — the same one the simulator calls — runs inside the
critical region) at negligible cost for our demonstration workloads.

The store also timestamps every access with ``time.monotonic`` so the
executor can *measure* the realized step-time bound — the empirical
``Δ`` of the host, GIL hiccups included, which is exactly the paper's
point about how large an honest ``Δ`` must be (and why ``optimistic(Δ)``
matters).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Hashable, List, Tuple

from ..sim.ops import Op
from ..sim.registers import Memory, Register

__all__ = ["SharedStore", "AccessRecord"]


class AccessRecord:
    """One timestamped shared-memory access (for Δ measurement)."""

    __slots__ = ("pid", "kind", "register", "started", "finished")

    def __init__(self, pid: int, kind: str, register: Hashable,
                 started: float, finished: float) -> None:
        self.pid = pid
        self.kind = kind
        self.register = register
        self.started = started
        self.finished = finished

    @property
    def duration(self) -> float:
        return self.finished - self.started

    def __repr__(self) -> str:
        return (
            f"AccessRecord(p{self.pid} {self.kind} {self.register!r} "
            f"{self.duration * 1e6:.1f}us)"
        )


class SharedStore:
    """Thread-safe register storage with access timestamps."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memory = Memory()
        self._accesses: List[AccessRecord] = []

    def apply(self, pid: int, op: Op) -> Any:
        """Linearize one shared op under the lock; returns its result."""
        started = time.monotonic()
        with self._lock:
            result = op.apply(self._memory)
        finished = time.monotonic()
        record = AccessRecord(pid, op.kind, op.register.name, started, finished)
        with self._lock:
            self._accesses.append(record)
        return result

    def peek(self, register: Register) -> Any:
        with self._lock:
            return self._memory.peek(register)

    @property
    def register_count(self) -> int:
        with self._lock:
            return self._memory.register_count

    def measured_delta(self) -> Tuple[float, float]:
        """(max, p99-ish) observed *inter-step* gap per process.

        The paper's Δ covers the whole statement — including time spent
        preempted between accesses — so we measure the gap from each
        access's start to the same process's previous access start.
        """
        by_pid: Dict[int, List[float]] = {}
        with self._lock:
            for record in self._accesses:
                by_pid.setdefault(record.pid, []).append(record.started)
        gaps: List[float] = []
        for starts in by_pid.values():
            starts.sort()
            gaps.extend(b - a for a, b in zip(starts, starts[1:]))
        if not gaps:
            return 0.0, 0.0
        gaps.sort()
        p99 = gaps[min(len(gaps) - 1, int(0.99 * len(gaps)))]
        return gaps[-1], p99
