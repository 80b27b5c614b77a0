"""Replayable asynchronous semantics for generator programs.

The model checker explores *arbitrary interleavings of shared-memory
steps* — the fully asynchronous semantics in which timing failures may
strike at any moment.  Accordingly:

* ``Read``/``Write`` are the scheduling points (one transition each);
* ``delay(d)`` is a no-op: under timing failures a delay provides no
  synchronization guarantee whatsoever, which is exactly what makes
  checking this semantics equivalent to checking "safety during timing
  failures";
* ``LocalWork`` with positive duration is a *pause point*: the process
  parks there for one transition.  This makes critical-section occupancy
  (which is bracketed by labels around a ``LocalWork`` body) an
  observable state — a zero-duration CS would otherwise be entered and
  left within a single advance and no interleaving could ever witness two
  processes inside.  Zero-duration local work is skipped;
* ``Label`` updates the observer state (critical-section occupancy,
  decisions) without consuming a transition.

Python generators cannot be forked, so exploration re-executes programs
from scratch along each schedule prefix (see
:mod:`repro.verify.explorer`).  A :class:`Sandbox` is one such execution:
feed it pids with :meth:`step` and inspect the resulting state.

Soundness of fingerprint memoization: a deterministic program's future
behaviour is a function of the sequence of values its reads returned, so
``(memory contents, per-process read histories, per-process liveness)``
fully determines the reachable futures.  :meth:`fingerprint` returns
exactly that.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Set

from ..sim import ops as op_defs
from ..sim.ops import Label, Op
from ..sim.registers import Memory, _freeze
from ..sim.trace import EventKind

__all__ = ["Sandbox", "ProgramFactory"]

# A factory producing a fresh program for a pid (replays need fresh
# generators every time).
ProgramFactory = Callable[[int], Any]

# How many consecutive non-shared operations a program may execute before
# the sandbox declares it livelocked (labels/delays in a tight loop).
_MAX_NONSHARED_RUN = 10_000

# Read-history marker recording a crash-recovery restart.  No real read
# value can equal it (``_freeze`` never produces this tuple), so restarted
# histories stay distinct from unrestarted ones — fingerprint soundness.
_RESTART_MARK = ("__restart__",)


class Sandbox:
    """One asynchronous execution, driven step by step."""

    def __init__(self, factories: Dict[int, ProgramFactory], max_ops: int) -> None:
        if max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {max_ops}")
        self.memory = Memory()
        self.max_ops = max_ops
        self._programs: Dict[int, Any] = {}
        self._pending: Dict[int, Optional[Op]] = {}
        self._read_history: Dict[int, List[Hashable]] = {}
        self._op_count: Dict[int, int] = {}
        self._done: Dict[int, bool] = {}
        self._results: Dict[int, Any] = {}
        self.in_cs: Set[int] = set()
        self.decisions: Dict[int, Any] = {}
        for pid, factory in factories.items():
            self._programs[pid] = factory(pid)
            self._pending[pid] = None
            self._read_history[pid] = []
            self._op_count[pid] = 0
            self._done[pid] = False
            self._advance(pid, None)

    # -- driving -----------------------------------------------------------

    def enabled(self) -> List[int]:
        """Pids that can take a shared step right now."""
        return sorted(
            pid
            for pid, op in self._pending.items()
            if op is not None and self._op_count[pid] < self.max_ops
        )

    def suspended(self) -> List[int]:
        """Pids stopped only by the per-process op bound."""
        return sorted(
            pid
            for pid, op in self._pending.items()
            if op is not None and self._op_count[pid] >= self.max_ops
        )

    def step(self, pid: int) -> None:
        """Execute ``pid``'s pending shared step (its linearization)."""
        op = self._pending.get(pid)
        if op is None:
            raise ValueError(f"pid {pid} has no pending step (done or unknown)")
        if self._op_count[pid] >= self.max_ops:
            raise ValueError(f"pid {pid} is suspended at the op bound")
        self._op_count[pid] += 1
        result = None
        if op.is_shared:  # else a pause ends: no memory effect
            result = op.apply(self.memory)
            if op.kind != EventKind.WRITE:
                # A read's or RMW's result re-enters the program, so it must
                # join the read history for fingerprint soundness.
                self._read_history[pid].append(_freeze(result))
        self._advance(pid, result)

    def _advance(self, pid: int, send_value: Any) -> None:
        """Run ``pid`` forward to its next shared op (or to completion)."""
        program = self._programs[pid]
        for _ in range(_MAX_NONSHARED_RUN):
            try:
                op = program.send(send_value)
            except StopIteration as stop:
                self._pending[pid] = None
                self._done[pid] = True
                self._results[pid] = stop.value
                return
            if not isinstance(op, Op) or op.is_message:
                raise TypeError(f"pid {pid} yielded a non-operation: {op!r}")
            if op.is_shared or (op.kind == EventKind.LOCAL and op.duration > 0):
                self._pending[pid] = op  # a step, or a pause point (the CS body)
                return
            if op.kind == EventKind.LABEL:
                self._observe_label(pid, op)
            # Delays and zero local work: no guarantee under asynchrony, skip.
            send_value = None
        raise RuntimeError(
            f"pid {pid} executed {_MAX_NONSHARED_RUN} consecutive non-shared "
            f"operations: livelock in local code"
        )

    def _observe_label(self, pid: int, label: Label) -> None:
        if label.name == op_defs.CS_ENTER:
            if pid in self.in_cs:
                raise RuntimeError(f"pid {pid} entered CS twice without exiting")
            self.in_cs.add(pid)
        elif label.name == op_defs.CS_EXIT:
            self.in_cs.discard(pid)
        elif label.name == op_defs.DECIDED:
            self.decisions.setdefault(pid, label.payload)

    def restart(self, pid: int, factory: ProgramFactory) -> None:
        """Crash-recovery restart: fresh program instance, persistent memory.

        Volatile state vanishes — the generator is rebuilt from scratch and
        the per-incarnation op budget resets.  Observer state follows crash
        semantics: the dead incarnation's critical-section occupancy ended
        with it (the *registers* may still claim the lock; whether the
        algorithm copes is exactly what a recover campaign measures), while
        decisions persist — a decision, once announced, stays announced.
        """
        if pid not in self._programs:
            raise ValueError(f"unknown pid {pid}")
        self._programs[pid].close()
        self._programs[pid] = factory(pid)
        self._pending[pid] = None
        self._done[pid] = False
        self._results.pop(pid, None)
        self._op_count[pid] = 0
        self.in_cs.discard(pid)
        # The restart must stay visible to the fingerprint: two states that
        # differ only in "pid was restarted" have different futures.
        self._read_history[pid].append(_RESTART_MARK)
        self._advance(pid, None)

    # -- inspection ----------------------------------------------------------

    def pending_op(self, pid: int) -> Optional[Op]:
        """The shared op ``pid`` would execute on its next :meth:`step`.

        Observation only (tracing harnesses record the op kind/register
        before stepping); ``None`` when the process is done or unknown.
        """
        return self._pending.get(pid)

    def done(self, pid: int) -> bool:
        return self._done[pid]

    def all_quiescent(self) -> bool:
        """True when no process can take another step (done or suspended)."""
        return not self.enabled()

    def result(self, pid: int) -> Any:
        return self._results.get(pid)

    @property
    def results(self) -> Dict[int, Any]:
        return dict(self._results)

    def op_count(self, pid: int) -> int:
        return self._op_count[pid]

    def fingerprint(self) -> Hashable:
        """A sound digest: equal fingerprints have identical futures.

        A deterministic program's position is a function of the values its
        reads returned *and* the number of transitions it consumed (pause
        points advance the position without touching memory, so the op
        count is not derivable from the read history alone).
        """
        procs = tuple(
            (
                pid,
                self._done[pid],
                self._op_count[pid],
                tuple(self._read_history[pid]),
            )
            for pid in sorted(self._programs)
        )
        return (self.memory.fingerprint(), procs)

    def __repr__(self) -> str:
        return (
            f"Sandbox(enabled={self.enabled()}, done="
            f"{sorted(p for p, d in self._done.items() if d)})"
        )
