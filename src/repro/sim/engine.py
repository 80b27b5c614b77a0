"""The discrete-event engine: the paper's timing-based system, executable.

The engine realizes the paper's model directly:

* shared memory is a set of atomic registers (:class:`~repro.sim.registers.Memory`);
* each process is a generator program yielding operations;
* every shared-memory access takes a duration chosen by the
  :class:`~repro.sim.timing.TimingModel` — at most ``Δ`` in a well-behaved
  system, more than ``Δ`` during a *timing failure*;
* ``delay(d)`` suspends the process for (at least) ``d`` time units;
* an operation's atomic effect (its linearization point) happens at its
  completion instant; same-instant completions linearize in the order the
  configured :class:`~repro.sim.scheduler.TieBreak` dictates.

Crash failures (for the wait-freedom experiments) are pre-scheduled from a
:class:`~repro.sim.failures.CrashSchedule`: a crashed process takes no
further steps, and an in-flight operation whose completion would linearize
at or after the crash instant is discarded — the crash really does strike
"between the invocation and the effect".

Determinism: given the same programs, timing model (with its seed), tie
break and crash schedule, a run is bit-for-bit reproducible.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer, active_tracer

from .clock import VirtualClock
from .failures import CrashSchedule, MemoryFault, RecoverSchedule
from .instrument import EngineProbe, active_probe
from .ops import Op
from .process import Process, ProcessState, Program, ProgramFactory
from .registers import Memory
from .scheduler import FifoTieBreak, TieBreak
from .timing import StepContext, TimingModel
from .trace import EventKind, Trace, TraceEvent

__all__ = ["Engine", "RunResult", "RunStatus", "SimulationError"]

# Relative tolerance when classifying a step as a timing failure; guards
# against float noise in duration arithmetic.
_DELTA_TOLERANCE = 1e-9

# How many consecutive zero-duration operations (labels) a process may
# execute before the engine declares it livelocked.
_MAX_ZERO_DURATION_RUN = 10_000


class SimulationError(RuntimeError):
    """An algorithm program raised, or the simulation itself is broken."""


class RunStatus(enum.Enum):
    """Why :meth:`Engine.run` returned."""

    COMPLETED = "completed"  # every process finished or crashed
    TIME_LIMIT = "time_limit"  # virtual max_time reached
    STEP_LIMIT = "step_limit"  # max_total_steps shared accesses reached


@dataclass
class RunResult:
    """Everything observable about one simulation run."""

    status: RunStatus
    trace: Trace
    memory: Memory
    processes: Dict[int, Process]
    end_time: float

    @property
    def returns(self) -> Dict[int, Any]:
        """pid -> program return value, for processes that finished."""
        return {
            pid: p.result
            for pid, p in self.processes.items()
            if p.state is ProcessState.DONE
        }

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.COMPLETED

    @property
    def crashed_pids(self) -> List[int]:
        return sorted(
            pid
            for pid, p in self.processes.items()
            if p.state is ProcessState.CRASHED
        )

    @property
    def live_pids(self) -> List[int]:
        """Processes still running when the run stopped (limits only)."""
        return sorted(pid for pid, p in self.processes.items() if p.alive)

    def __repr__(self) -> str:
        return (
            f"RunResult(status={self.status.value}, end={self.end_time:.3f}, "
            f"events={len(self.trace)}, done={len(self.returns)}, "
            f"crashed={len(self.crashed_pids)})"
        )


# Internal event actions.
_START = "start"
_COMPLETE = "complete"
_CRASH = "crash"
_RESTART = "restart"
_FAULT = "fault"

#: Pseudo-pid used for scheduler bookkeeping of injected memory faults.
FAULT_PID = -1

# Heap entries are plain tuples, ordered lexicographically by
# (time, priority, seq).  ``seq`` is unique per entry, so comparison never
# reaches the payload fields behind it:
#
#     (time, priority, seq, pid, action, op, issued, payload)
#
# Tuples instead of a dataclass keep the hot loop free of per-event object
# construction and rich-comparison dispatch (~20% of event-loop time on
# the bench pingpong micro-scenario).


class Engine:
    """Discrete-event executor for generator programs.

    Class attribute ``_TRACE_SUBSTRATE`` names the substrate in emitted
    trace records (overridden by :class:`repro.net.NetEngine`).

    Parameters
    ----------
    delta:
        The paper's ``Δ`` — the *known* upper bound on step time.  Only
        used for classification (which steps count as timing failures) and
        by metrics; the actual durations come from ``timing``.
    timing:
        The :class:`TimingModel` assigning a duration to every operation.
    tie_break:
        Linearization order for same-instant completions.
    crashes:
        Optional :class:`CrashSchedule`.
    recoveries:
        Optional :class:`RecoverSchedule` — crash-recovery restarts.  A
        restarting process gets a fresh program instance built by the
        factory passed to :meth:`spawn` while shared registers persist.
    max_time / max_total_steps:
        Run limits; exceeding one stops the run with the corresponding
        :class:`RunStatus` (needed because asynchronous adversaries can
        make consensus run forever — FLP — and busy-wait loops never
        terminate on their own).
    probe:
        Optional :class:`~repro.sim.instrument.EngineProbe` accumulating
        deterministic work counters.  Defaults to the ambient
        :func:`~repro.sim.instrument.probe_scope` probe, i.e. ``None``
        outside any scope — in which case instrumentation costs nothing.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` receiving structured
        span/event records.  Defaults to the ambient
        :func:`~repro.obs.tracer.trace_scope` tracer, i.e. ``None``
        outside any scope.  Tracing is pure observation: a traced run is
        bit-identical to an untraced one.
    """

    _TRACE_SUBSTRATE = "sim"

    def __init__(
        self,
        delta: float,
        timing: TimingModel,
        tie_break: Optional[TieBreak] = None,
        crashes: Optional[CrashSchedule] = None,
        recoveries: Optional[RecoverSchedule] = None,
        max_time: float = math.inf,
        max_total_steps: float = math.inf,
        memory: Optional[Memory] = None,
        faults: Optional[List[MemoryFault]] = None,
        probe: Optional[EngineProbe] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.timing = timing
        self.tie_break = tie_break if tie_break is not None else FifoTieBreak()
        self.crashes = crashes if crashes is not None else CrashSchedule.none()
        self.recoveries = (
            recoveries if recoveries is not None else RecoverSchedule.none()
        )
        self.max_time = max_time
        self.max_total_steps = max_total_steps
        self.memory = memory if memory is not None else Memory()

        self.clock = VirtualClock()
        self.trace = Trace(delta)
        self.processes: Dict[int, Process] = {}
        self._heap: List[Tuple] = []
        self._seq = itertools.count()
        self._event_seq = itertools.count()
        self.total_shared_steps = 0
        self._ran = False
        self._probe = probe if probe is not None else active_probe()
        self._tracer = tracer if tracer is not None else active_tracer()
        if self._tracer is not None:
            self._tracer.bind_clock(self.clock)
        # FifoTieBreak priorities are just the issue sequence number; skip
        # the method call and the 1-tuple per push for the default policy.
        self._fifo = type(self.tie_break) is FifoTieBreak
        for fault in faults or ():
            self._push(fault.at, FAULT_PID, _FAULT, payload=fault)

    # -- setup ---------------------------------------------------------------

    def spawn(
        self,
        program: Program,
        pid: Optional[int] = None,
        name: Optional[str] = None,
        start_time: float = 0.0,
        factory: Optional[ProgramFactory] = None,
    ) -> Process:
        """Register a program as a process starting at ``start_time``.

        ``factory`` rebuilds the program for a crash-recovery restart; it
        is required for any pid the :class:`RecoverSchedule` restarts
        (local state is volatile — only registers survive the crash).
        """
        if self._ran:
            raise RuntimeError("cannot spawn after run() — build a new Engine")
        if start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        if pid is None:
            pid = len(self.processes)
        if pid in self.processes:
            raise ValueError(f"pid {pid} already spawned")
        proc = Process(pid, program, name, factory=factory)
        proc.started_at = start_time
        proc.crash_time = self.crashes.crash_time(pid)
        proc.crash_step = self.crashes.crash_step(pid)
        self.processes[pid] = proc
        self._push(start_time, pid, _START)
        if math.isfinite(proc.crash_time):
            # Stamp the crash with the incarnation it belongs to so a
            # restarted process is not killed by its predecessor's event.
            self._push(proc.crash_time, pid, _CRASH, payload=0)
        recover_time = self.recoveries.recover_time(pid)
        if math.isfinite(recover_time):
            if factory is None:
                raise ValueError(
                    f"pid {pid} has a scheduled recovery but no program "
                    f"factory: restarts need a fresh program instance"
                )
            self._push(recover_time, pid, _RESTART)
        return proc

    # -- event plumbing --------------------------------------------------------

    def _push(
        self,
        time: float,
        pid: int,
        action: str,
        op: Optional[Op] = None,
        issued: float = 0.0,
        payload: Any = None,
    ) -> None:
        seq = next(self._seq)
        priority: Any = seq if self._fifo else self.tie_break.priority(pid, seq)
        probe = self._probe
        if probe is not None:
            probe.heap_pushes += 1
        heapq.heappush(
            self._heap,
            (time, priority, next(self._event_seq), pid, action, op, issued, payload),
        )

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute until every process finishes/crashes or a limit trips."""
        if self._ran:
            raise RuntimeError("Engine.run() may only be called once")
        self._ran = True
        if self._tracer is not None:
            self._tracer.engine_run(
                self._TRACE_SUBSTRATE, self.delta, list(self.processes)
            )
        status = RunStatus.COMPLETED
        # The event loop is the simulator's hot path: bind everything it
        # touches per event to locals once, and order the action checks by
        # frequency (completions dominate every workload).
        heap = self._heap
        heappop = heapq.heappop
        processes = self.processes
        advance_to = self.clock.advance_to
        max_time = self.max_time
        complete = self._complete
        probe = self._probe
        while heap:
            if self.total_shared_steps >= self.max_total_steps:
                status = RunStatus.STEP_LIMIT
                break
            time, _priority, _seq, pid, action, op, issued, payload = heappop(heap)
            if time > max_time:
                status = RunStatus.TIME_LIMIT
                break
            if probe is not None:
                probe.events += 1
            if action == _COMPLETE:
                proc = processes[pid]
                if not proc.alive or payload != proc.incarnation:
                    # Stale event: the process crashed, or this completion
                    # belongs to an incarnation that died before a restart.
                    continue
                advance_to(time)
                complete(proc, op, issued, time)
                continue
            if action == _FAULT:
                advance_to(time)
                fault: MemoryFault = payload
                self.memory.poke(fault.register, fault.value)
                self._emit(
                    FAULT_PID, EventKind.FAULT, time, time,
                    register=fault.register.name, value=fault.value,
                )
                continue
            proc = processes[pid]
            if action == _CRASH:
                # A stale crash (the process already finished, or it
                # belongs to an incarnation that died before a restart)
                # must not move time.
                if proc.alive and payload == proc.incarnation:
                    advance_to(time)
                    self._crash(proc, time)
                continue
            if action == _RESTART:
                advance_to(time)
                self._restart(proc, time)
                continue
            if not proc.alive:
                continue  # stale event for a crashed process
            advance_to(time)
            if action == _START:
                self._start(proc, time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event action {action!r}")
        self.trace.finalize()
        if probe is not None:
            probe.runs += 1
            probe.ops_linearized += sum(
                p.total_ops for p in self.processes.values()
            )
            probe.shared_steps += self.total_shared_steps
            probe.trace_events += len(self.trace)
            probe.reads += self.memory.read_count
            probe.writes += self.memory.write_count
            probe.rmws += self.memory.rmw_count
            probe.registers_touched += self.memory.register_count
        return RunResult(
            status=status,
            trace=self.trace,
            memory=self.memory,
            processes=self.processes,
            end_time=self.clock.now,
        )

    # -- lifecycle -------------------------------------------------------------

    def _start(self, proc: Process, now: float) -> None:
        if proc.crash_step <= 0:
            self._crash(proc, now)
            return
        proc.state = ProcessState.RUNNING
        self._resume(proc, None, now)

    def _crash(self, proc: Process, now: float) -> None:
        proc.state = ProcessState.CRASHED
        proc.finished_at = now
        self._emit(proc.pid, EventKind.CRASH, now, now)
        proc.program.close()

    def _restart(self, proc: Process, now: float) -> None:
        """Crash-recovery: fresh program instance, persistent registers.

        Only a CRASHED process restarts — a process that finished (or was
        never crashed because its crash time never fired) ignores the
        event.  One restart per pid: the recovered incarnation has no
        further crash scheduled.
        """
        if proc.state is not ProcessState.CRASHED or proc.factory is None:
            return
        proc.incarnation += 1
        proc.program = proc.factory(proc.pid)
        proc.state = ProcessState.RUNNING
        proc.finished_at = None
        proc.crash_time = math.inf
        proc.crash_step = math.inf
        self._emit(proc.pid, EventKind.RESTART, now, now, value=proc.incarnation)
        self._resume(proc, None, now)

    def _complete(self, proc: Process, op: Op, issued: float, now: float) -> None:
        """Apply an in-flight operation's effect at its completion instant."""
        proc.total_ops += 1
        if not op.is_shared:  # delay or local work: time passed, no effect
            self._emit(proc.pid, op.kind, issued, now, value=op.duration)
            self._resume(proc, None, now)
            return
        result = op.apply(self.memory)
        # A write records the value it stored, a read or RMW what it returned.
        value = op.value if op.kind == EventKind.WRITE else result
        self._emit(
            proc.pid, op.kind, issued, now,
            register=op.register.name, value=value,
            exceeded_delta=(now - issued) > self.delta * (1.0 + _DELTA_TOLERANCE),
        )
        proc.shared_steps += 1
        self.total_shared_steps += 1
        if proc.shared_steps >= proc.crash_step:
            self._crash(proc, now)
            return
        self._resume(proc, result, now)

    def _resume(self, proc: Process, send_value: Any, now: float) -> None:
        """Pull operations from the program until one consumes time."""
        for _ in range(_MAX_ZERO_DURATION_RUN):
            try:
                op = proc.program.send(send_value)
                if not isinstance(op, Op):
                    raise TypeError(f"yielded a non-operation: {op!r}")
            except StopIteration as stop:
                proc.state = ProcessState.DONE
                proc.result = stop.value
                proc.finished_at = now
                self._emit(proc.pid, EventKind.DONE, now, now, value=stop.value)
                return
            except Exception as exc:
                proc.state = ProcessState.FAILED
                proc.error = exc
                raise SimulationError(
                    f"process {proc.pid} ({proc.name}) raised {exc!r} at time {now}"
                ) from exc

            if op.kind == EventKind.LABEL:
                self._emit(
                    proc.pid, EventKind.LABEL, now, now,
                    value=op.payload, label=op.name,
                )
                proc.total_ops += 1
                send_value = None
                continue

            duration = self._duration_of(proc, op, now)
            self._push(
                now + duration,
                proc.pid,
                _COMPLETE,
                op=op,
                issued=now,
                payload=proc.incarnation,
            )
            return
        raise SimulationError(
            f"process {proc.pid} ({proc.name}) executed {_MAX_ZERO_DURATION_RUN} "
            f"consecutive zero-duration operations at time {now}: livelock"
        )

    def _duration_of(self, proc: Process, op: Op, now: float) -> float:
        if op.is_shared:
            ctx = StepContext(pid=proc.pid, op=op, now=now, step_index=proc.shared_steps)
            duration = self.timing.shared_step_duration(ctx)
            if duration <= 0:
                raise SimulationError(
                    f"timing model produced nonpositive step duration {duration}"
                )
            return duration
        if op.is_message:
            raise SimulationError(
                f"process {proc.pid} ({proc.name}) yielded message op {op!r}; "
                f"message operations need the network-aware engine "
                f"(repro.net.NetEngine)"
            )
        if op.kind == EventKind.DELAY:
            duration = self.timing.delay_duration(proc.pid, op.duration, now)
            if duration < op.duration:
                raise SimulationError(
                    f"delay({op.duration}) shortened to {duration}: delay must "
                    f"last at least the requested time"
                )
            return duration
        duration = self.timing.local_duration(proc.pid, op.duration, now)
        if duration < 0:
            raise SimulationError(f"local work duration must be >= 0, got {duration}")
        return duration

    # -- trace recording ----------------------------------------------------------

    def _emit(
        self,
        pid: int,
        kind: str,
        issued: float,
        completed: float,
        register: Any = None,
        value: Any = None,
        label: Optional[str] = None,
        exceeded_delta: bool = False,
    ) -> None:
        """Record one event: build its :class:`TraceEvent` once, append it
        to the trace and hand the same object to the tracer, if any."""
        event = TraceEvent(
            next(self._event_seq), pid, kind, issued, completed,
            register, value, label, exceeded_delta,
        )
        self.trace.append(event)
        if self._tracer is not None:
            self._tracer.event(event)
