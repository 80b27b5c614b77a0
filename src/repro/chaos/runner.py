"""Executing campaigns: targets, schedule generation, deterministic replay.

**Sim substrate.**  A chaos run drives the asynchronous sandbox
(:class:`~repro.verify.sandbox.Sandbox`) with a *campaign-aware* random
scheduler over the logical clock (number of shared steps executed):

* a :class:`~repro.sim.failures.TimingFailureWindow` active at the
  current clock **stalls** its affected processes — their pending step
  "takes longer than Δ", i.e. it completes only once the scheduler
  leaves the window (unless every runnable process is stalled, in which
  case one of them completes anyway: a timing failure delays steps, it
  cannot stop the whole system);
* crash entries permanently remove a process from scheduling at a
  logical time (``crash_at``) or after a number of its own steps
  (``crash_after``);
* :class:`~repro.chaos.plan.MemCorruption` entries poke the named
  register at their logical instant.

The recorded pid sequence plus the campaign's *state-affecting* faults
(crashes, corruptions) fully determine the run, so
:func:`run_sim` doubles as the deterministic replay function: pass the
recorded ``schedule`` back and the identical execution — violations
included — is reproduced.  Replay is *tolerant*: a scheduled pid that is
finished, crashed, or suspended is skipped without advancing the clock,
which is what lets the shrinker evaluate arbitrary subsequences.
(Timing windows bias generation only; under the asynchronous semantics
any recorded schedule is self-justifying, which is why the shrinker can
usually delete every window — see :mod:`repro.chaos.shrink`.)

With no windows and no crashes the scheduler is a uniform
``rng.choice`` over the enabled processes — the standard asynchronous
adversary — so a fault-free campaign (``Campaign(substrate="sim",
seed=...)``, or ``--windows 0`` on the CLI) is plain schedule fuzzing.
Any program can be fuzzed that way by wrapping its factories and
properties in an ad-hoc :class:`SimTarget`.

**Net substrate.**  A chaos run is a seeded client workload over the ABD
quorum emulation under the campaign's fault plan, checked against the
atomic-register linearizability spec, with the explicit (campaign,
workload, seed) triple the shrinker and the artifacts need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.tracer import active_tracer

from ..sim import ops
from ..sim.engine import FAULT_PID
from ..sim.failures import WindowIndex
from ..sim.registers import Register
from ..sim.trace import EventKind, TraceEvent
from ..verify.properties import (
    AgreementProperty,
    MutualExclusionProperty,
    SafetyProperty,
    ValidityProperty,
)
from ..verify.sandbox import ProgramFactory, Sandbox
from .monitors import (
    ChaosMonitor,
    ChaosViolation,
    default_monitors,
    stabilization_monitors,
)
from .plan import Campaign

__all__ = [
    "SimTarget",
    "SIM_TARGETS",
    "sim_target",
    "SimOutcome",
    "run_sim",
    "CampaignReport",
    "run_sim_campaign",
    "NetParams",
    "NetOutcome",
    "sample_net_workload",
    "run_net",
    "run_net_campaign",
]

DEFAULT_MAX_STEPS = 400

# Post-fault steps a recover target gets to become legal again before any
# further safety violation is a real failure.  Deliberately much tighter
# than the convergence budget (which bounds *termination*): Dijkstra's
# ring drains corruption in O(n·(n+K)) moves, so 150 logical steps is
# generous for the n=3 targets while keeping the window's close well
# inside the default step budget — a window the run never outlives would
# make "no violations after the window" vacuous.
STABILIZATION_WINDOW = 150


# ---------------------------------------------------------------------------
# Sim targets: named program-under-test configurations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimTarget:
    """A named sandbox configuration a campaign can be thrown at.

    ``build`` returns fresh ``(factories, properties, registers)`` per
    run — generators cannot be rewound, and ``registers`` (name ->
    handle) is how :class:`~repro.chaos.plan.MemCorruption` entries are
    resolved.
    """

    name: str
    description: str
    build: Callable[
        [], Tuple[Dict[int, ProgramFactory], List[SafetyProperty], Dict[str, Register]]
    ]
    max_ops: int
    pids: Tuple[int, ...]
    expect_violation: bool  # documentation: does a violation exist at all?
    # Stabilizing/recoverable targets: judged with stabilization monitors
    # (transient violations tolerated inside the window, convergence
    # verdicted) instead of the default set, and the natural prey of
    # recover campaigns (crash+restart pairs, corruption bursts).
    recover: bool = False
    # Register names a recover campaign may corrupt.  Sampling guidance
    # only — resolution still goes through the ``build()`` registers
    # table, which stays the single source of truth for validation.
    corruptible: Tuple[str, ...] = ()


def _build_fischer_n3():
    from ..algorithms import FischerLock, mutex_session

    lock = FischerLock(delta=1.0)
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=2, cs_duration=1.0))
        for pid in range(3)
    }
    return factories, [MutualExclusionProperty()], {"x": lock.x}


def _build_alg3_n4():
    from ..algorithms import mutex_session
    from ..core.mutex import default_time_resilient_mutex

    lock = default_time_resilient_mutex(4, delta=1.0)
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
        for pid in range(4)
    }
    return factories, [MutualExclusionProperty()], {}


def _build_consensus_n4():
    from ..core.consensus import TimeResilientConsensus, labeled_decision

    consensus = TimeResilientConsensus(delta=1.0, max_rounds=3)
    inputs = {pid: pid % 2 for pid in range(4)}
    factories = {
        pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
        for pid in inputs
    }
    return factories, [AgreementProperty(), ValidityProperty(inputs)], {}


def _build_dg_mutex_n3():
    from ..algorithms import stabilizing_ring

    lock, factory = stabilizing_ring(3, sessions=1, cs_duration=1.0)
    factories = {pid: factory for pid in range(3)}
    registers = {f"S{i}": lock.cells[i] for i in range(3)}
    return factories, [MutualExclusionProperty()], registers


def _build_golab_consensus_n3():
    from ..algorithms import RecoverableConsensus

    consensus = RecoverableConsensus()
    inputs = {pid: pid + 1 for pid in range(3)}  # None encodes ⊥: stay nonzero
    factories = {
        pid: (lambda p: consensus.propose(p, inputs[p])) for pid in inputs
    }
    # No corruptible registers: scrambling the persistent decision record
    # forges a decision, which is outside the crash-recovery contract
    # (see repro.algorithms.recoverable) — so none are declared.
    return factories, [AgreementProperty(), ValidityProperty(inputs)], {}


SIM_TARGETS: Dict[str, SimTarget] = {
    t.name: t
    for t in (
        SimTarget(
            "fischer_n3",
            "Fischer's lock, 3 processes, 2 sessions (violation exists)",
            _build_fischer_n3,
            max_ops=40,
            pids=(0, 1, 2),
            expect_violation=True,
        ),
        SimTarget(
            "alg3_n4",
            "Algorithm 3 mutex, 4 processes (must stay safe)",
            _build_alg3_n4,
            max_ops=120,
            pids=(0, 1, 2, 3),
            expect_violation=False,
        ),
        SimTarget(
            "consensus_n4",
            "Algorithm 1 consensus, 4 processes (must stay safe)",
            _build_consensus_n4,
            max_ops=80,
            pids=(0, 1, 2, 3),
            expect_violation=False,
        ),
        SimTarget(
            "dg_mutex_n3",
            "DG self-stabilizing token mutex, 3 processes (must converge)",
            _build_dg_mutex_n3,
            max_ops=300,
            pids=(0, 1, 2),
            expect_violation=False,
            recover=True,
            corruptible=("S0", "S1", "S2"),
        ),
        SimTarget(
            "golab_consensus_n3",
            "Golab recoverable consensus, 3 processes (survives restarts)",
            _build_golab_consensus_n3,
            max_ops=60,
            pids=(0, 1, 2),
            expect_violation=False,
            recover=True,
        ),
    )
}


def sim_target(name: str) -> SimTarget:
    try:
        return SIM_TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown sim target {name!r}; known: {', '.join(sorted(SIM_TARGETS))}"
        ) from None


# ---------------------------------------------------------------------------
# Sim execution: one function for generation AND replay.
# ---------------------------------------------------------------------------


@dataclass
class SimOutcome:
    """One sim chaos execution, generated or replayed."""

    campaign: Campaign
    schedule: Tuple[int, ...]
    violations: List[ChaosViolation] = field(default_factory=list)
    steps: int = 0
    done: bool = False  # every process ran to completion
    run_seed: Optional[str] = None
    # Positive evidence from monitors that measure rather than reject —
    # e.g. the StabilizationMonitor's convergence verdict.  Only produced
    # on runs that end without a violation stopping them.
    verdicts: List[ChaosViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def find(self, monitor: str) -> Optional[ChaosViolation]:
        """The first violation from the named monitor, if any."""
        for violation in self.violations:
            if violation.monitor == monitor:
                return violation
        return None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"SimOutcome({status}, steps={self.steps}, "
            f"schedule_len={len(self.schedule)}, done={self.done})"
        )


def run_sim(
    target: SimTarget,
    campaign: Campaign,
    schedule: Optional[Sequence[int]] = None,
    run_seed: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    monitors: Optional[List[ChaosMonitor]] = None,
    stop_monitor: Optional[str] = None,
) -> SimOutcome:
    """Execute one sim chaos run.

    With ``schedule=None`` the campaign-aware scheduler (seeded from
    ``(campaign.seed, run_seed)``) generates one; otherwise the given
    schedule is replayed deterministically.  ``stop_monitor`` stops the
    run as soon as that monitor fires (the shrinker's fast path);
    otherwise the run continues to its natural end collecting every
    monitor's first violation.
    """
    if campaign.substrate != "sim":
        raise ValueError(f"expected a sim campaign, got {campaign.substrate!r}")
    factories, properties, registers = target.build()
    # Validate the corruption plan eagerly: a typo'd register name must
    # fail loudly up front, not silently no-op because the clock never
    # reached the corruption instant (or worse, only explode mid-run).
    for corruption in campaign.corruptions:
        if corruption.register not in registers:
            raise ValueError(
                f"campaign corrupts unknown register {corruption.register!r}; "
                f"target {target.name!r} declares {sorted(registers)}"
            )
    if monitors is None:
        # Busy-wait step complexity is unbounded under adversarial
        # interleavings, so the "still churning" budget scales with the
        # target's total op budget rather than using a fixed constant.
        budget = max(200, 2 * target.max_ops * len(target.pids))
        if target.recover:
            monitors = stabilization_monitors(
                properties, campaign,
                convergence_budget=budget, window=STABILIZATION_WINDOW,
            )
        else:
            monitors = default_monitors(
                properties, campaign, convergence_budget=budget
            )
    for monitor in monitors:
        monitor.reset()
    sandbox = Sandbox(factories, max_ops=target.max_ops)

    # Ambient tracing (repro.obs): logical-clock substrate — each shared
    # step spans [clock, clock+1].  Pure observation; scheduling, RNG
    # draws and monitor decisions are identical with or without it.
    tracer = active_tracer()
    if tracer is not None:
        tracer.run_marker(
            "steps",
            target=target.name,
            seed=campaign.seed,
            run_seed=run_seed,
            pids=list(target.pids),
        )
        for window in campaign.windows:
            tracer.window(
                float(window.start),
                float(window.end),
                None if window.pids is None else sorted(window.pids),
                "timing",
            )

    crash_at = dict(campaign.crash_at)
    crash_after = dict(campaign.crash_after)
    recover_at = dict(campaign.recover_at)
    corruptions = sorted(campaign.corruptions, key=lambda c: c.at)
    next_corruption = 0
    generating = schedule is None
    rng = random.Random(f"chaos:{campaign.seed}:{run_seed}") if generating else None

    recorded: List[int] = []
    violations: List[ChaosViolation] = []
    clock = 0
    halted: set = set()
    inf = math.inf

    def trace_instant(pid: int, kind: str, register: Any = None) -> None:
        if tracer is not None:
            t = float(clock)
            tracer.event(TraceEvent(clock, pid, kind, t, t, register))

    def apply_corruptions() -> None:
        nonlocal next_corruption
        while next_corruption < len(corruptions) and corruptions[next_corruption].at <= clock:
            corruption = corruptions[next_corruption]
            sandbox.memory.poke(registers[corruption.register], corruption.value)
            trace_instant(FAULT_PID, EventKind.FAULT, corruption.register)
            next_corruption += 1

    def apply_recoveries() -> None:
        # Runs before refresh_halted, so a restart instant at-or-before
        # the crash instant is a no-op (entry consumed, pid not yet
        # halted) — as is an entry whose pid never crashed or finished
        # first.  Orphaned entries are legal: the shrinker relies on it.
        for pid, when in list(recover_at.items()):
            if clock < when:
                continue
            del recover_at[pid]
            if pid not in halted:
                continue
            halted.discard(pid)
            crash_at.pop(pid, None)
            crash_after.pop(pid, None)
            sandbox.restart(pid, factories[pid])
            trace_instant(pid, EventKind.RESTART)

    def refresh_halted() -> None:
        for pid in sandbox.enabled():
            if pid in halted:
                continue
            if clock >= crash_at.get(pid, inf) or sandbox.op_count(pid) >= crash_after.get(pid, inf):
                halted.add(pid)
                trace_instant(pid, EventKind.CRASH)

    def settle() -> None:
        # Fault bookkeeping before scheduling: corruptions and restarts
        # due at the current instant, then fresh crashes.  When every
        # process is done or crashed but a restart is still scheduled,
        # idle time passes — jump the clock to the next restart instead
        # of abandoning the run with a recovery forever pending.  The
        # jump is a function of the reached state, so generation and
        # replay fast-forward identically.
        nonlocal clock
        while True:
            apply_corruptions()
            apply_recoveries()
            refresh_halted()
            if any(p not in halted for p in sandbox.enabled()):
                return
            pending = [
                when for pid, when in recover_at.items() if pid in halted
            ]
            if not pending:
                return
            # apply_recoveries consumed everything due, so the earliest
            # pending restart is strictly in the future: ceil advances.
            clock = max(clock, math.ceil(min(pending)))

    def step(pid: int) -> None:
        nonlocal clock
        op = sandbox.pending_op(pid)
        sandbox.step(pid)
        recorded.append(pid)
        clock += 1
        if tracer is not None:
            register = op.register.name if op.is_shared else None
            tracer.event(TraceEvent(
                clock, pid, op.kind, float(clock - 1), float(clock), register
            ))

    def check_monitors() -> bool:
        frozen_halted = frozenset(halted)
        for monitor in monitors:
            message = monitor.on_step(sandbox, clock, frozen_halted)
            if message is not None:
                violations.append(ChaosViolation(monitor.name, message, clock))
                if tracer is not None:
                    tracer.violation(monitor.name, float(clock))
                if stop_monitor is not None and monitor.name == stop_monitor:
                    return True
        return False

    stopped = False
    if generating:
        window_index = WindowIndex(campaign.windows)
        while clock < max_steps:
            settle()
            runnable = [p for p in sandbox.enabled() if p not in halted]
            if not runnable:
                break
            covering = window_index.covering(clock)
            free = [
                p
                for p in runnable
                if not any(w.affects(p, clock) for w in covering)
            ]
            step(rng.choice(free or runnable))
            if check_monitors():
                stopped = True
                break
    else:
        for pid in schedule:
            settle()
            if pid in halted or pid not in sandbox.enabled():
                continue  # tolerant replay: skip unrunnable slots
            step(pid)
            if check_monitors():
                stopped = True
                break

    done = (not stopped) and all(sandbox.done(pid) for pid in factories)
    verdicts: List[ChaosViolation] = []
    if not stopped:
        frozen_halted = frozenset(halted)
        for monitor in monitors:
            message = monitor.finalize(sandbox, clock, frozen_halted)
            if message is not None:
                violations.append(ChaosViolation(monitor.name, message, clock))
                if tracer is not None:
                    tracer.violation(monitor.name, float(clock))
        verdicts = [
            monitor.verdict
            for monitor in monitors
            if getattr(monitor, "verdict", None) is not None
        ]
    for pid in sorted(factories):
        if sandbox.done(pid):
            trace_instant(pid, EventKind.DONE)
    return SimOutcome(
        campaign=campaign,
        schedule=tuple(recorded),
        violations=violations,
        steps=clock,
        done=done,
        run_seed=run_seed,
        verdicts=verdicts,
    )


@dataclass
class CampaignReport:
    """Aggregate of many runs of one campaign."""

    campaign: Campaign
    schedules_run: int = 0
    total_steps: int = 0
    failing: Optional[Any] = None  # first failing SimOutcome / NetOutcome
    shard_timing: Optional[List[Dict[str, Any]]] = None  # telemetry only
    # Recover targets: how many runs produced a stabilization verdict,
    # and the first such verdict (the evidence --expect recover checks).
    verdicts: int = 0
    first_verdict: Optional[ChaosViolation] = None
    # (global run index, repro.obs records) per traced run, in index
    # order, so concatenating is byte-identical across worker counts.
    trace_chunks: List[Tuple[int, List[Dict[str, Any]]]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return self.failing is None

    @property
    def converged(self) -> bool:
        """Every run finished clean with a stabilization verdict."""
        return self.ok and self.verdicts == self.schedules_run

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"failing at run {self.failing.run_seed!r}"
        return (
            f"CampaignReport({status}, schedules={self.schedules_run}, "
            f"steps={self.total_steps})"
        )


def _traced_run(
    trace: bool, run: Callable[..., Any], *args: Any, **kwargs: Any
) -> Tuple[Any, Optional[List[Dict[str, Any]]]]:
    """``run(*args, **kwargs)``, optionally under a private tracer.

    Returns the run's outcome and, when ``trace`` is set, its
    ``repro.obs`` records — one chunk per run, for either substrate.
    """
    if not trace:
        return run(*args, **kwargs), None
    from repro.obs import Tracer, trace_scope

    tracer = Tracer()
    with trace_scope(tracer):
        outcome = run(*args, **kwargs)
    return outcome, tracer.take()


def _sim_shard(shard, payload) -> List[Any]:
    """Shard worker: one slice of a sim campaign's run-index range.

    Module-level for the spawn pool; the target travels by *name* (its
    build closures cannot cross a process boundary) while the frozen
    campaign pickles as-is.  Each run is seeded by its global index
    exactly as in the sequential loop, and the shard stops at its own
    first failure — runs past the globally-first failure are discarded
    by the merge, so stopping early only saves work.
    """
    from ..parallel.merge import RunRecord

    target_name, campaign, max_steps, trace = payload
    target = sim_target(target_name)
    records: List[Any] = []
    for index in range(shard.start, shard.stop):
        outcome, chunk = _traced_run(
            trace, run_sim, target, campaign,
            run_seed=str(index), max_steps=max_steps,
        )
        records.append(
            RunRecord(
                index=index,
                steps=outcome.steps,
                outcome=None if outcome.ok else outcome,
                verdict=outcome.verdicts[0] if outcome.verdicts else None,
                trace=chunk,
            )
        )
        if not outcome.ok:
            break
    return records


def _run_campaign_sharded(
    campaign: Campaign,
    schedules: int,
    worker,
    payload,
    workers: int,
    pool,
) -> CampaignReport:
    """Common sharded path for both substrates' campaign loops."""
    from ..parallel import WorkerPool, make_shards, timing_rows
    from ..parallel.merge import merge_campaign_runs

    shards = make_shards(schedules, workers, master_seed=str(campaign.seed))
    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(workers)
    try:
        results = pool.run(worker, shards, payload)
    finally:
        if own_pool:
            pool.close()
    report = merge_campaign_runs(campaign, [r.value for r in results])
    report.shard_timing = timing_rows(results, campaign=str(campaign.seed))
    return report


def run_sim_campaign(
    target: SimTarget,
    campaign: Campaign,
    schedules: int = 20,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
    pool=None,
    trace: bool = False,
) -> CampaignReport:
    """Run ``schedules`` generated executions; stop at the first failure.

    ``workers > 1`` shards the run-index range over processes (reusing
    ``pool``, a :class:`repro.parallel.WorkerPool`, when given).  Runs
    are seeded by global index, so the report — failing outcome,
    ``schedules_run``, ``total_steps``, verdict counts, trace chunks —
    is identical to the sequential path; only ``shard_timing`` differs.
    ``trace=True`` records each run under a private ``repro.obs`` tracer
    and collects the chunks on the report in run-index order.
    """
    if schedules < 0:
        raise ValueError(f"schedules must be >= 0, got {schedules}")
    if workers != 1 or pool is not None:
        return _run_campaign_sharded(
            campaign, schedules, _sim_shard,
            (target.name, campaign, max_steps, trace),
            workers=workers if pool is None else pool.workers, pool=pool,
        )
    report = CampaignReport(campaign=campaign)
    for index in range(schedules):
        outcome, chunk = _traced_run(
            trace, run_sim, target, campaign,
            run_seed=str(index), max_steps=max_steps,
        )
        report.schedules_run += 1
        report.total_steps += outcome.steps
        if chunk is not None:
            report.trace_chunks.append((index, chunk))
        if outcome.verdicts:
            report.verdicts += 1
            if report.first_verdict is None:
                report.first_verdict = outcome.verdicts[0]
        if not outcome.ok:
            report.failing = outcome
            break
    return report


# ---------------------------------------------------------------------------
# Net substrate: explicit workloads over the quorum emulation.
# ---------------------------------------------------------------------------

# A workload is one ops tuple per client; each op is ("write", reg, value)
# or ("read", reg, None).
Workload = Tuple[Tuple[Tuple[str, int, Any], ...], ...]


@dataclass(frozen=True)
class NetParams:
    """The fixed shape of a net chaos run (serialized into artifacts)."""

    clients: int = 2
    replicas: int = 3
    registers: int = 2
    ops_per_client: int = 3
    bound: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "replicas": self.replicas,
            "registers": self.registers,
            "ops_per_client": self.ops_per_client,
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetParams":
        return cls(
            clients=int(data["clients"]),
            replicas=int(data["replicas"]),
            registers=int(data["registers"]),
            ops_per_client=int(data["ops_per_client"]),
            bound=float(data["bound"]),
        )


@dataclass
class NetOutcome:
    """One net chaos execution (linearizability verdict per register)."""

    campaign: Campaign
    workload: Workload
    violations: List[ChaosViolation] = field(default_factory=list)
    operations: int = 0
    pending: int = 0
    status: str = ""
    run_seed: Optional[str] = None
    # Transport telemetry (NetStats.snapshot()); serialized into repro
    # artifacts so a counterexample ships with its wire-level counters.
    net_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"NetOutcome({status}, operations={self.operations}, "
            f"pending={self.pending}, status={self.status})"
        )


def sample_net_workload(
    campaign: Campaign, run_seed: str, params: NetParams
) -> Workload:
    """Draw the per-client read/write choices for one run."""
    rng = random.Random(f"chaos:{campaign.seed}:{run_seed}:workload")
    value = 1
    workload: List[Tuple[Tuple[str, int, Any], ...]] = []
    for _client in range(params.clients):
        choices: List[Tuple[str, int, Any]] = []
        for _ in range(params.ops_per_client):
            if rng.random() < 0.5:
                choices.append(("write", rng.randrange(params.registers), value))
                value += 1
            else:
                choices.append(("read", rng.randrange(params.registers), None))
        workload.append(tuple(choices))
    return tuple(workload)


def _net_client(
    choices: Sequence[Tuple[str, int, Any]], registers: Sequence[Register]
):
    from ..spec.histories import INVOKE, RESPOND

    for kind, reg_index, value in choices:
        register = registers[reg_index]
        if kind == "write":
            yield ops.label(INVOKE, (register.name, "write", (value,)))
            yield register.write(value)
            yield ops.label(RESPOND, (register.name, None))
        else:
            yield ops.label(INVOKE, (register.name, "read", ()))
            result = yield register.read()
            yield ops.label(RESPOND, (register.name, result))


def run_net(
    campaign: Campaign,
    workload: Workload,
    params: NetParams = NetParams(),
    run_seed: Optional[str] = None,
) -> NetOutcome:
    """Execute one net chaos run and check linearizability per register.

    Deterministic in ``(campaign, workload, run_seed)``: the transport's
    RNG is seeded from the campaign seed and ``run_seed``, the fault
    environment comes from the campaign's adapters, and the workload is
    explicit data — exactly the triple the shrinker minimizes.
    """
    from ..net.quorum import QuorumSystem
    from ..spec.histories import history_from_trace, pending_from_trace
    from ..spec.linearizability import RegisterModel, check_linearizability

    if campaign.substrate != "net":
        raise ValueError(f"expected a net campaign, got {campaign.substrate!r}")
    if len(workload) != params.clients:
        raise ValueError(
            f"workload has {len(workload)} clients, params say {params.clients}"
        )
    registers = [Register(f"r{i}") for i in range(params.registers)]
    programs = [_net_client(choices, registers) for choices in workload]
    crashes = campaign.crash_schedule()
    tracer = active_tracer()
    if tracer is not None:
        tracer.run_marker(
            "net",
            seed=campaign.seed,
            run_seed=run_seed,
            pids=list(range(params.clients + params.replicas)),
        )
        plan = campaign.net_plan()
        for loss in plan.losses:
            tracer.window(
                float(loss.start), float(loss.end),
                None if loss.pids is None else sorted(loss.pids), "loss",
            )
        for spike in plan.spikes:
            tracer.window(
                float(spike.start), float(spike.end),
                None if spike.pids is None else sorted(spike.pids), "spike",
            )
        for partition in plan.partitions:
            tracer.window(
                float(partition.start), float(partition.end),
                sorted(p for group in partition.groups for p in group),
                "partition",
            )
    system = QuorumSystem(
        params.clients,
        replicas=params.replicas,
        bound=params.bound,
        seed=f"chaos:{campaign.seed}:{run_seed}:transport",
        faults=campaign.net_plan(),
        crashes=crashes if (campaign.crash_at or campaign.crash_after) else None,
        max_time=200.0 * params.bound,
    )
    result = system.run(programs)
    outcome = NetOutcome(
        campaign=campaign,
        workload=workload,
        status=result.status.value,
        run_seed=run_seed,
        net_stats=system.transport.stats.snapshot(),
    )
    for register in registers:
        history = history_from_trace(result.trace, obj=register.name)
        pending = pending_from_trace(result.trace, obj=register.name)
        check = check_linearizability(
            history, RegisterModel(initial=register.initial), pending=pending
        )
        outcome.operations += len(history)
        outcome.pending += len(pending)
        if not check.ok:
            outcome.violations.append(
                ChaosViolation(
                    monitor="linearizability",
                    message=(
                        f"register {register.name!r}: {len(history)} completed "
                        f"+ {len(pending)} pending operations admit no legal "
                        f"sequential order"
                    ),
                    step=len(history),
                )
            )
            if tracer is not None:
                tracer.violation("linearizability", result.end_time)
    return outcome


def _generated_net_run(
    campaign: Campaign, run_seed: str, params: NetParams
) -> NetOutcome:
    """One campaign run: sample its workload, then execute it."""
    workload = sample_net_workload(campaign, run_seed, params)
    return run_net(campaign, workload, params=params, run_seed=run_seed)


def _net_shard(shard, payload) -> List[Any]:
    """Shard worker: one slice of a net campaign's run-index range.

    Workloads are re-sampled inside the worker from the campaign seed
    and the global run index — identical to the sequential loop's draws.
    """
    from ..parallel.merge import RunRecord

    campaign, params, trace = payload
    records: List[Any] = []
    for index in range(shard.start, shard.stop):
        outcome, chunk = _traced_run(
            trace, _generated_net_run, campaign, str(index), params
        )
        records.append(
            RunRecord(
                index=index,
                steps=outcome.operations,
                outcome=None if outcome.ok else outcome,
                trace=chunk,
            )
        )
        if not outcome.ok:
            break
    return records


def run_net_campaign(
    campaign: Campaign,
    schedules: int = 10,
    params: NetParams = NetParams(),
    workers: int = 1,
    pool=None,
    trace: bool = False,
) -> CampaignReport:
    """Run ``schedules`` sampled workloads; stop at the first failure.

    Sharding and tracing semantics are those of :func:`run_sim_campaign`:
    worker count never changes the report, only ``shard_timing``.
    """
    if schedules < 0:
        raise ValueError(f"schedules must be >= 0, got {schedules}")
    if workers != 1 or pool is not None:
        return _run_campaign_sharded(
            campaign, schedules, _net_shard, (campaign, params, trace),
            workers=workers if pool is None else pool.workers, pool=pool,
        )
    report = CampaignReport(campaign=campaign)
    for index in range(schedules):
        outcome, chunk = _traced_run(
            trace, _generated_net_run, campaign, str(index), params
        )
        report.schedules_run += 1
        report.total_steps += outcome.operations
        if chunk is not None:
            report.trace_chunks.append((index, chunk))
        if not outcome.ok:
            report.failing = outcome
            break
    return report
