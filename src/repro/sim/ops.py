"""Operation vocabulary for simulated processes — the one op kernel.

A simulated process is a Python generator that *yields* operations and
receives their results back through ``send``.  This module is the only
place op semantics are written down; every executor dispatches on the
class attributes below and calls ``apply`` for an op's effect:

* :class:`repro.sim.engine.Engine` — the discrete-event timing simulator,
  which charges each shared-memory operation a duration drawn from a
  :class:`repro.sim.timing.TimingModel`;
* :class:`repro.net.NetEngine` — the engine plus a message fabric, and
  :meth:`repro.net.QuorumSystem.emulate_registers`, which turns register
  ops into quorum phases on it;
* :class:`repro.verify.sandbox.Sandbox` — the model checker's and chaos
  runner's replayable asynchronous semantics (``Delay`` provides no
  guarantee there, which is exactly the paper's notion of a timing
  failure);
* :class:`repro.runtime.executor.ThreadedExecutor` — a real-thread backend;
* :class:`repro.serve.driver.AsyncioDriver` — real time and live sockets.

Each op class declares ``kind`` (its :class:`repro.sim.trace.EventKind`
and ``repro.obs`` op name), ``is_shared`` and ``is_message``.  Only
:class:`Read`, :class:`Write` and :class:`ReadModifyWrite` touch shared
memory and are therefore "steps" in the sense of the paper's timing
assumption (there is a known upper bound ``Δ`` on the time any single
such step may take); their ``apply(memory)`` is the one place their
register effect is written.  The message ops' ``apply(fabric, pid, now)``
does the same for any fabric with ``send``/``collect``/``peers`` (the
emulated transport or a live substrate).  ``Delay`` is the paper's
explicit ``delay(d)`` statement.  ``LocalWork`` consumes simulated time
without touching shared memory (used to model critical sections and think
times).  ``Label`` is a zero-duration annotation recorded in the trace,
used by the specification checkers (e.g. critical-section entry and exit
marks).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Hashable,
    Iterable,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .registers import Memory, Register


__all__ = [
    "Op",
    "Read",
    "Write",
    "ReadModifyWrite",
    "compare_and_swap",
    "fetch_and_add",
    "get_and_set",
    "Delay",
    "LocalWork",
    "Label",
    "Send",
    "Broadcast",
    "Recv",
    "ENTRY_START",
    "CS_ENTER",
    "CS_EXIT",
    "EXIT_DONE",
    "DECIDED",
    "read",
    "write",
    "delay",
    "local_work",
    "label",
    "send",
    "broadcast",
    "recv",
]


class Op:
    """Base class for everything a simulated process may yield.

    ``kind`` is the op's trace event kind and ``repro.obs`` op name.
    ``is_shared`` marks a shared-memory access (a "step").  ``is_message``
    marks an op on the message substrate: the per-link delivery bound
    plays the role the paper's ``Δ`` plays for shared-memory steps (see
    :mod:`repro.net`), and the plain :class:`~repro.sim.engine.Engine`
    rejects them.
    """

    __slots__ = ()

    kind: ClassVar[str]
    is_shared: ClassVar[bool] = False
    is_message: ClassVar[bool] = False


@dataclass(frozen=True)
class Read(Op):
    """Atomically read a shared register; the register's value is sent back."""

    register: "Register"

    __slots__ = ("register",)

    kind = "read"
    is_shared = True

    def apply(self, memory: "Memory") -> Any:
        """Linearize; returns the value read."""
        return memory.read(self.register)

    def __repr__(self) -> str:
        return f"Read({self.register.name!r})"


@dataclass(frozen=True)
class Write(Op):
    """Atomically write ``value`` to a shared register."""

    register: "Register"
    value: Any

    __slots__ = ("register", "value")

    kind = "write"
    is_shared = True

    def apply(self, memory: "Memory") -> None:
        """Linearize; the process receives ``None``."""
        memory.write(self.register, self.value)

    def __repr__(self) -> str:
        return f"Write({self.register.name!r}, {self.value!r})"


@dataclass(frozen=True)
class ReadModifyWrite(Op):
    """An atomic read-modify-write on one register (paper §4 extension).

    The paper's algorithms use reads and writes only; its Discussion
    section lists "synchronization primitives other than atomic registers"
    as an extension.  This op applies ``transform(old) -> (new, result)``
    atomically at the linearization point; the process receives
    ``result``.  ``transform`` must be pure (it may run more than once in
    replay-based exploration).

    Use the helpers :func:`compare_and_swap`, :func:`fetch_and_add` and
    :func:`get_and_set` for the classic primitives; ``name`` identifies
    the primitive in traces.
    """

    register: "Register"
    transform: "Callable[[Any], tuple]"
    name: str = "rmw"

    kind = "rmw"
    is_shared = True

    def apply(self, memory: "Memory") -> Any:
        """Linearize; returns ``result`` of ``transform(old)``."""
        return memory.rmw(self.register, self.transform)

    def __repr__(self) -> str:
        return f"ReadModifyWrite({self.register.name!r}, {self.name})"


def compare_and_swap(register: "Register", expected: Any, new: Any) -> ReadModifyWrite:
    """CAS: if the register holds ``expected``, store ``new``.

    The process receives ``True`` on success, ``False`` otherwise.
    """

    def transform(old: Any) -> tuple:
        if old == expected:
            return new, True
        return old, False

    return ReadModifyWrite(register, transform, name="cas")


def fetch_and_add(register: "Register", amount: Any = 1) -> ReadModifyWrite:
    """Atomically add ``amount``; the process receives the old value."""

    def transform(old: Any) -> tuple:
        return old + amount, old

    return ReadModifyWrite(register, transform, name="faa")


def get_and_set(register: "Register", new: Any) -> ReadModifyWrite:
    """Atomically store ``new``; the process receives the old value."""

    def transform(old: Any) -> tuple:
        return new, old

    return ReadModifyWrite(register, transform, name="gas")


@dataclass(frozen=True)
class Delay(Op):
    """The paper's explicit ``delay(d)`` statement.

    Under the timing-based semantics the process is suspended for *at
    least* ``duration`` time units (the engine charges exactly
    ``duration``, matching the paper's accounting convention).  Under
    fully asynchronous semantics — i.e. during timing failures — a delay
    provides no synchronization guarantee whatsoever, which is how the
    model checker treats it.
    """

    duration: float

    __slots__ = ("duration",)

    kind = "delay"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"delay duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class LocalWork(Op):
    """Local computation consuming ``duration`` time units.

    Does not touch shared memory; used to model the critical section body
    and the remainder (non-critical) section of long-lived workloads.
    """

    duration: float

    __slots__ = ("duration",)

    kind = "local"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"local work duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class Label(Op):
    """A zero-duration trace annotation.

    The specification checkers recognise the well-known names below
    (``ENTRY_START``, ``CS_ENTER``, ...); arbitrary names may be used for
    ad-hoc instrumentation.  ``name`` becomes the trace event's ``label``
    and ``payload`` travels with it.
    """

    # No __slots__ here: dataclass fields with defaults store a class
    # attribute, which conflicts with same-named slots on Python < 3.10's
    # dataclass (no ``slots=True``); Labels are rare enough not to matter.
    name: str
    payload: Optional[Hashable] = None

    kind = "label"


@dataclass(frozen=True)
class Send(Op):
    """Hand one message to the network, addressed to process ``dest``.

    The message is *in flight* from the operation's completion instant
    (its linearization point); the transport then assigns a delivery
    time within the link's delivery bound — or beyond it during a delay
    spike (the networked timing failure), or never (loss, partitions).
    The sender learns nothing about the outcome: ``None`` is sent back.
    """

    dest: int
    payload: Any

    __slots__ = ("dest", "payload")

    kind = "send"
    is_message = True

    def apply(self, fabric: Any, pid: int, now: float) -> int:
        """Hand the message to ``fabric``; returns the destination."""
        fabric.send(pid, self.dest, self.payload, now)
        return self.dest

    def __repr__(self) -> str:
        return f"Send(to={self.dest}, {self.payload!r})"


@dataclass(frozen=True)
class Broadcast(Op):
    """Hand one message per destination to the network.

    ``dests=None`` addresses every other process on the transport.  One
    broadcast linearizes as a single operation, but each copy travels
    (and may be dropped or delayed) independently — there is no
    reliable-broadcast guarantee, matching the crash-prone model.
    """

    payload: Any
    dests: Optional[Tuple[int, ...]] = None

    # No __slots__: a defaulted dataclass field stores a class attribute,
    # which conflicts with same-named slots before Python 3.10 (same
    # trade-off as Label above).

    kind = "send"
    is_message = True

    def apply(self, fabric: Any, pid: int, now: float) -> Tuple[int, ...]:
        """Hand one copy per destination to ``fabric``; returns them."""
        dests = self.dests if self.dests is not None else fabric.peers(pid)
        for dest in dests:
            fabric.send(pid, dest, self.payload, now)
        return tuple(dests)

    def __repr__(self) -> str:
        to = "all" if self.dests is None else f"{list(self.dests)}"
        return f"Broadcast(to={to}, {self.payload!r})"


@dataclass(frozen=True)
class Recv(Op):
    """Collect every message delivered to this process so far.

    The process receives a list of ``(sender, payload)`` pairs, ordered
    by delivery time (ties by transport sequence).  Non-blocking: the
    list is empty when nothing has arrived — receivers poll, exactly
    like the register-backed mailboxes in :mod:`repro.mp.channels`.
    """

    __slots__ = ()

    kind = "recv"
    is_message = True

    def apply(self, fabric: Any, pid: int, now: float) -> Any:
        """Returns the ``(sender, payload)`` pairs delivered by ``now``."""
        return fabric.collect(pid, now)

    def __repr__(self) -> str:
        return "Recv()"


# Well-known label names used by the mutual-exclusion and consensus
# specification checkers.
ENTRY_START = "entry_start"
CS_ENTER = "cs_enter"
CS_EXIT = "cs_exit"
EXIT_DONE = "exit_done"
DECIDED = "decided"


def read(register: "Register") -> Read:
    """Convenience constructor: ``value = yield read(reg)``."""
    return Read(register)


def write(register: "Register", value: Any) -> Write:
    """Convenience constructor: ``yield write(reg, v)``."""
    return Write(register, value)


def delay(duration: float) -> Delay:
    """Convenience constructor for the paper's ``delay(d)`` statement."""
    return Delay(duration)


def local_work(duration: float) -> LocalWork:
    """Convenience constructor for local (non-shared) computation."""
    return LocalWork(duration)


def label(name: str, payload: Optional[Hashable] = None) -> Label:
    """Convenience constructor for trace annotations."""
    return Label(name, payload)


def send(dest: int, payload: Any) -> Send:
    """Convenience constructor: ``yield send(pid, msg)``."""
    return Send(dest, payload)


def broadcast(payload: Any, dests: Optional[Iterable[int]] = None) -> Broadcast:
    """Convenience constructor: ``yield broadcast(msg)`` (to everyone else)."""
    return Broadcast(payload, None if dests is None else tuple(dests))


def recv() -> Recv:
    """Convenience constructor: ``msgs = yield recv()``."""
    return Recv()
