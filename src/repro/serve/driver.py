"""The live driver: run generator programs against real time and sockets.

Everything in this repo that computes — Algorithm 3's doorway, the ABD
quorum phases, the replica service loop — is a Python generator yielding
:mod:`repro.sim.ops` operations.  On the sim substrates those ops are
interpreted by the discrete-event engines; :class:`AsyncioDriver`
interprets the *same generators* against a live
:class:`~repro.serve.substrate.Substrate`:

* ``Send``/``Broadcast`` — synchronous substrate sends (real socket
  writes on the asyncio substrate), followed by a zero-sleep so the
  event loop stays fair;
* ``Recv`` — a non-blocking ``collect``, the same poll-don't-block
  contract the net engine gives;
* ``Delay(d)`` — ``asyncio.sleep(d · time_scale)``.  A delay is a *real*
  suspension of at least ``d`` scaled seconds: Algorithm 3's doorway
  delay must genuinely elapse, so the driver never shortcuts it.  As an
  efficiency valve only, a delay that immediately follows an *empty*
  recv may be interrupted early by message arrival
  (``eager_wakeup=True``, the default) — waking early from a polling
  nap is indistinguishable from having polled faster, and the engine's
  semantics promise nothing about poll granularity.  Doorway delays
  follow reads/writes, never an empty recv, so they are never shortened;
* ``LocalWork(d)`` — also a scaled sleep (think time is think time);
* ``Label`` — a tracer record, free;
* shared-memory ops (``Read``/``Write``/RMW) — rejected.  The live
  substrate has no shared memory; register programs must be wrapped by
  :meth:`repro.net.QuorumSystem.emulate_registers` first, exactly as on
  the net substrate.

This is the substrate-interface payoff: *no algorithm code changes*
between a simulated run and a live one — only the driver differs.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer, active_tracer
from repro.sim import ops
from repro.sim.process import Program
from repro.sim.trace import EventKind, TraceEvent

from .substrate import Substrate

__all__ = ["AsyncioDriver"]


class AsyncioDriver:
    """Spawn and drive generator programs over a live substrate.

    Parameters
    ----------
    substrate:
        Any :class:`~repro.serve.substrate.Substrate`; the driver uses
        its clock when it is an :class:`AsyncioSubstrate` (or any object
        with a ``clock.now``), else a loop-relative clock of its own.
    time_scale:
        Real seconds per model time unit.  The sim substrates express
        delays in units of the delivery bound; live programs usually
        pass real-second durations directly (scale 1.0).
    eager_wakeup:
        Allow message arrival to cut short a delay that directly follows
        an empty recv (polling naps only; see module docstring).
    """

    def __init__(
        self,
        substrate: Substrate,
        time_scale: float = 1.0,
        tracer: Optional[Tracer] = None,
        eager_wakeup: bool = True,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.substrate = substrate
        self.time_scale = float(time_scale)
        self.tracer = tracer if tracer is not None else active_tracer()
        self.eager_wakeup = eager_wakeup
        self.tasks: Dict[int, "asyncio.Task"] = {}
        self.returns: Dict[int, Any] = {}
        self._event_seq = itertools.count()
        self._clock = getattr(substrate, "clock", None)
        if self.tracer is not None and self._clock is not None:
            self.tracer.bind_clock(self._clock)

    def now(self) -> float:
        if self._clock is not None:
            return self._clock.now
        loop = asyncio.get_event_loop()
        return loop.time()

    # -- spawning ------------------------------------------------------------

    def spawn(self, program: Program, pid: int, name: Optional[str] = None) -> "asyncio.Task":
        """Create the asyncio task driving ``program`` as endpoint ``pid``."""
        if pid in self.tasks:
            raise ValueError(f"pid {pid} already spawned on this driver")
        task = asyncio.get_running_loop().create_task(
            self._drive(program, pid), name=name or f"p{pid}"
        )
        self.tasks[pid] = task
        return task

    async def wait(self) -> Dict[int, Any]:
        """Await every spawned program; return ``{pid: return value}``."""
        if self.tasks:
            await asyncio.gather(*self.tasks.values())
        return dict(self.returns)

    async def cancel(self) -> None:
        """Cancel every still-running program and swallow the cancellations."""
        for task in self.tasks.values():
            if not task.done():
                task.cancel()
        await asyncio.gather(*self.tasks.values(), return_exceptions=True)

    # -- the interpreter -----------------------------------------------------

    async def _drive(self, program: Program, pid: int) -> Any:
        substrate = self.substrate
        scale = self.time_scale
        tracer = self.tracer
        send_value: Any = None
        # True when the previous op was a Recv that came back empty —
        # the only state in which a following Delay is a polling nap.
        empty_poll = False
        while True:
            try:
                op = program.send(send_value)
            except StopIteration as stop:
                self.returns[pid] = stop.value
                if tracer is not None:
                    t = self.now()
                    tracer.event(TraceEvent(
                        next(self._event_seq), pid, EventKind.DONE, t, t,
                        value=stop.value,
                    ))
                return stop.value
            if not isinstance(op, ops.Op):
                raise TypeError(f"pid {pid} yielded a non-operation: {op!r}")
            if op.is_message:
                result = op.apply(substrate, pid, self.now())
                received = op.kind == EventKind.RECV
                send_value = result if received else None
                empty_poll = received and not result
                await asyncio.sleep(0)
                continue
            if op.is_shared:
                raise TypeError(
                    f"the live driver has no shared memory — wrap register "
                    f"programs with QuorumSystem.emulate_registers (got {op!r})"
                )
            send_value = None
            polling_nap, empty_poll = empty_poll, False
            if op.kind == EventKind.LABEL:
                if tracer is not None:
                    t = self.now()
                    tracer.event(TraceEvent(
                        next(self._event_seq), pid, EventKind.LABEL, t, t,
                        value=op.payload, label=op.name,
                    ))
                continue
            # Delay or local work: a real, scaled sleep.
            duration = op.duration * scale
            waiter = getattr(substrate, "wait_for_message", None)
            if (
                self.eager_wakeup
                and polling_nap
                and op.kind == EventKind.DELAY
                and waiter is not None
            ):
                await waiter(pid, duration)
            elif duration > 0:
                await asyncio.sleep(duration)
            else:
                await asyncio.sleep(0)

    def __repr__(self) -> str:
        live = sum(1 for t in self.tasks.values() if not t.done())
        return f"AsyncioDriver({len(self.tasks)} programs, {live} running)"
