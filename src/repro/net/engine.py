"""The network-aware engine: the timing-based engine plus a message fabric.

:class:`NetEngine` extends :class:`repro.sim.engine.Engine` with the three
message operations (:class:`~repro.sim.ops.Send`,
:class:`~repro.sim.ops.Broadcast`, :class:`~repro.sim.ops.Recv`).
Everything else — registers, delays, labels, crashes, tie-breaking,
run limits, determinism — is inherited unchanged, so programs may freely
mix shared-memory steps and messages (the :mod:`repro.mp` layer does the
former-from-the-latter; :mod:`repro.net.quorum` does the converse).

Timing: a ``Send``/``Broadcast`` costs ``send_cost`` local time (handing
the message to the network is a local action; the *delivery* delay is the
transport's job), a ``Recv`` costs ``recv_cost``.  Both must be positive
— a zero cost would let a polling loop livelock the discrete-event loop,
the same reason shared steps must take positive time.

A crashed process's queued messages stay undelivered on the transport
(its in-flight ``Recv`` is discarded by the base engine's stale-event
check), so a crash really does silence an endpoint mid-conversation.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

from ..sim.engine import Engine, RunResult
from ..sim.failures import CrashSchedule, MemoryFault
from ..sim.instrument import EngineProbe
from ..sim.ops import Op
from ..sim.process import Process
from ..sim.registers import Memory
from ..sim.scheduler import TieBreak
from ..sim.timing import TimingModel
from ..sim.trace import EventKind
from repro.obs.tracer import Tracer
from .transport import Transport

__all__ = ["NetEngine"]


class NetEngine(Engine):
    """Discrete-event executor for programs that also pass messages.

    Trace records from this engine carry substrate ``"net"``.

    Parameters (beyond :class:`~repro.sim.engine.Engine`'s)
    ----------
    transport:
        The :class:`~repro.net.transport.Transport` carrying this run's
        messages.  One transport per engine — its RNG and queues are
        consumed by the run.
    send_cost / recv_cost:
        Local duration of handing a message to (collecting messages
        from) the network.  Default: ``bound / 20`` of the transport —
        small against the delivery bound, but positive.
    """

    _TRACE_SUBSTRATE = "net"

    def __init__(
        self,
        delta: float,
        timing: TimingModel,
        transport: Transport,
        send_cost: Optional[float] = None,
        recv_cost: Optional[float] = None,
        tie_break: Optional[TieBreak] = None,
        crashes: Optional[CrashSchedule] = None,
        max_time: float = math.inf,
        max_total_steps: float = math.inf,
        memory: Optional[Memory] = None,
        faults: Optional[List[MemoryFault]] = None,
        probe: Optional[EngineProbe] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            delta,
            timing,
            tie_break=tie_break,
            crashes=crashes,
            max_time=max_time,
            max_total_steps=max_total_steps,
            memory=memory,
            faults=faults,
            probe=probe,
            tracer=tracer,
        )
        self.transport = transport
        # An explicitly-passed tracer must also see the wire: mirror it
        # onto the transport (which defaulted to the ambient tracer).
        if tracer is not None:
            transport.tracer = self._tracer
        self.send_cost = send_cost if send_cost is not None else transport.bound / 20.0
        self.recv_cost = recv_cost if recv_cost is not None else transport.bound / 20.0
        if self.send_cost <= 0 or self.recv_cost <= 0:
            raise ValueError(
                f"send/recv costs must be positive, got "
                f"{self.send_cost}/{self.recv_cost} (zero would livelock "
                f"polling loops)"
            )

    def _duration_of(self, proc: Process, op: Op, now: float) -> float:
        if op.is_message:
            return self.recv_cost if op.kind == EventKind.RECV else self.send_cost
        return super()._duration_of(proc, op, now)

    def _complete(self, proc: Process, op: Op, issued: float, now: float) -> None:
        if not op.is_message:
            super()._complete(proc, op, issued, now)
            return
        result = op.apply(self.transport, proc.pid, now)
        if op.kind == EventKind.RECV:
            self._emit(proc.pid, EventKind.RECV, issued, now, value=result)
        else:  # a send records its destination(s) in the register field
            self._emit(
                proc.pid, EventKind.SEND, issued, now,
                register=result, value=op.payload,
            )
            result = None
        proc.total_ops += 1
        self._resume(proc, result, now)

    def run(self) -> RunResult:
        result = super().run()
        probe = self._probe
        if probe is not None:
            stats = self.transport.stats
            probe.messages_sent += stats.messages_sent
            probe.messages_delivered += stats.messages_delivered
            probe.messages_dropped += stats.messages_dropped
            probe.quorum_rtts += stats.quorum_rtts
        return result
