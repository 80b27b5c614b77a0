"""Concurrent object histories.

A *history* is the externally visible behaviour of a shared object: a set
of operations, each with an invocation time, a response time, a name,
arguments and a result.  Histories come from two places:

* tests build them directly (hand-written corner cases);
* :func:`history_from_trace` extracts them from simulator traces via the
  ``inv``/``resp`` label convention used by the wait-free objects in
  :mod:`repro.core.derived`.

The :mod:`repro.spec.linearizability` checker consumes histories to verify
that objects built from time-resilient consensus (test-and-set, the
universal construction) really are linearizable implementations of their
sequential specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim import ops as op_kinds
from ..sim.trace import EventKind, Trace

__all__ = [
    "Operation",
    "History",
    "history_from_trace",
    "pending_from_trace",
    "INVOKE",
    "RESPOND",
]

# Label names for object-operation instrumentation.
INVOKE = "obj_invoke"
RESPOND = "obj_respond"


@dataclass(frozen=True)
class Operation:
    """One complete operation on a shared object."""

    pid: int
    name: str
    args: Tuple[Any, ...]
    result: Any
    invoked: float
    responded: float

    def __post_init__(self) -> None:
        if self.responded < self.invoked:
            raise ValueError(
                f"operation responds before it is invoked: {self!r}"
            )

    def precedes(self, other: "Operation") -> bool:
        """Real-time order: this op finished before the other started."""
        return self.responded < other.invoked

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return (
            f"p{self.pid}.{self.name}({args}) -> {self.result!r} "
            f"@[{self.invoked:.3f},{self.responded:.3f}]"
        )


@dataclass
class History:
    """A finite set of completed operations on one object."""

    operations: List[Operation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def add(
        self,
        pid: int,
        name: str,
        args: Tuple[Any, ...],
        result: Any,
        invoked: float,
        responded: float,
    ) -> None:
        self.operations.append(Operation(pid, name, args, result, invoked, responded))

    def sorted_by_invocation(self) -> List[Operation]:
        return sorted(self.operations, key=lambda o: (o.invoked, o.pid))

    def is_sequential(self) -> bool:
        """True when no two operations overlap in real time."""
        ops = sorted(self.operations, key=lambda o: o.invoked)
        for first, second in zip(ops, ops[1:]):
            if second.invoked < first.responded:
                return False
        return True

    def per_pid_well_formed(self) -> bool:
        """Each process's own operations must be sequential."""
        by_pid: Dict[int, List[Operation]] = {}
        for op in self.operations:
            by_pid.setdefault(op.pid, []).append(op)
        for ops in by_pid.values():
            ops.sort(key=lambda o: o.invoked)
            for first, second in zip(ops, ops[1:]):
                if second.invoked < first.responded:
                    return False
        return True


def history_from_trace(trace: Trace, obj: Any = None) -> History:
    """Extract an object history from ``INVOKE``/``RESPOND`` labels.

    Conventions: an invoke label's payload is ``(obj, name, args)`` and a
    respond label's payload is ``(obj, result)``; per process, responds
    match the most recent unanswered invoke on the same object.  Pass
    ``obj`` to select one object when a trace interleaves several; with
    ``obj=None`` all objects must be distinct by name anyway (payload obj
    still recorded but unfiltered).
    """
    history = History()
    pending: Dict[Tuple[int, Any], Tuple[str, Tuple[Any, ...], float]] = {}
    for event in trace:
        if event.kind != EventKind.LABEL:
            continue
        if event.label == INVOKE:
            this_obj, name, args = event.value
            if obj is not None and this_obj != obj:
                continue
            key = (event.pid, this_obj)
            if key in pending:
                raise ValueError(
                    f"pid {event.pid} invoked {name!r} on {this_obj!r} while a "
                    f"previous invocation is still pending"
                )
            pending[key] = (name, tuple(args), event.completed)
        elif event.label == RESPOND:
            this_obj, result = event.value
            if obj is not None and this_obj != obj:
                continue
            key = (event.pid, this_obj)
            if key not in pending:
                raise ValueError(
                    f"pid {event.pid} responded on {this_obj!r} without a "
                    f"pending invocation"
                )
            name, args, invoked = pending.pop(key)
            history.add(event.pid, name, args, result, invoked, event.completed)
    # Unanswered invocations (crashes mid-operation) are *not* part of the
    # completed history; fetch them with :func:`pending_from_trace` and pass
    # them to the checker's ``pending`` parameter — a crashed operation may
    # or may not have taken effect, and the checker tries both.
    return history


def pending_from_trace(trace: Trace, obj: Any = None) -> List["Operation"]:
    """Invocations with no response (crashed callers) as pending operations.

    Their effects may or may not be visible (a helper can complete a
    crashed process's operation in the universal construction), so feed
    them to :func:`repro.spec.linearizability.check_linearizability` via
    ``pending``; the checker considers both outcomes.  The recorded
    response time is ``+inf`` — a pending operation never constrains the
    real-time order.
    """
    import math

    answered: Dict[Tuple[int, Any], int] = {}
    opened: Dict[Tuple[int, Any], Tuple[str, Tuple[Any, ...], float]] = {}
    pending: List[Operation] = []
    for event in trace:
        if event.kind != EventKind.LABEL:
            continue
        if event.label == INVOKE:
            this_obj, name, args = event.value
            if obj is not None and this_obj != obj:
                continue
            opened[(event.pid, this_obj)] = (name, tuple(args), event.completed)
        elif event.label == RESPOND:
            this_obj, _ = event.value
            if obj is not None and this_obj != obj:
                continue
            opened.pop((event.pid, this_obj), None)
    for (pid, _), (name, args, invoked) in opened.items():
        pending.append(
            Operation(pid, name, args, None, invoked, math.inf)
        )
    return pending
