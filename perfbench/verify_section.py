"""The checker section: exhaustive exploration and chaos campaigns.

(a) Explorations that complete: Fischer n=3 at ``max_ops=6`` (violations
    exist) and Algorithm 3 n=2 at ``max_ops=18`` (none).  The explorer
    rebuilds and replays a ``verify.sandbox`` for every state.
(b) Campaigns through the public ``repro.chaos`` API: expect-clean
    ``alg3_n4`` and ``consensus_n4`` schedules, Fischer n=3
    find-then-shrink, and net ABD linearizability runs.  They step a
    sandbox forward once and add monitors, shrinking and the ``net``
    quorum layer.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import repro.chaos.monitors as monitors_module
import repro.spec.linearizability as linearizability_module
from repro.algorithms import FischerLock, mutex_session
from repro.chaos import (
    run_net_campaign,
    run_sim,
    run_sim_campaign,
    sample_net_campaign,
    sample_sim_campaign,
    shrink_sim,
    sim_target,
)
from repro.core.mutex import default_time_resilient_mutex
from repro.net.engine import NetEngine
from repro.sim import EngineProbe, probe_scope
from repro.sim.registers import RegisterNamespace
from repro.verify import (
    AgreementProperty,
    MutualExclusionProperty,
    ValidityProperty,
    explore,
)
from repro.verify.sandbox import Sandbox

from calibrate import speed
from section import CheckFailed, SectionResult, at_reference_speed, instrumented
from tracing import Recorder

DELTA = 1.0
EXPLORATIONS = (
    # (name, lock builder, processes, max_ops, violations expected)
    ("fischer_n3", lambda ns: FischerLock(delta=DELTA, namespace=ns), 3, 6, True),
    ("alg3_n2", lambda ns: default_time_resilient_mutex(2, DELTA, namespace=ns), 2, 18, False),
)
CLEAN_TARGETS = ("alg3_n4", "consensus_n4")
# Schedules a Fischer campaign may try before its miss counts as failed.
FISCHER_SCHEDULES = 200


@dataclass(frozen=True)
class Round:
    explore: Tuple[str, ...]  # names of the explorations to run
    clean: Tuple[Tuple[str, str], ...]  # (clean target, campaign seed)
    fischer: Tuple[str, ...]
    net: Tuple[str, ...]


@dataclass(frozen=True)
class VerifyInputs:
    campaign_windows: int
    clean_schedules: int
    net_schedules: int
    rounds: Tuple[Round, ...]


def make_inputs(
    rng: random.Random,
    rounds: int,
    explore_rounds: Tuple[int, ...],  # one per exploration
    campaign_windows: int,
    clean_campaigns: int,
    clean_schedules: int,
    fischer_campaigns: int,
    net_campaigns: int,
    net_schedules: int,
) -> VerifyInputs:
    def seeds(count: int) -> Tuple[str, ...]:
        return tuple(f"{rng.getrandbits(32):08x}" for _ in range(count))

    return VerifyInputs(
        campaign_windows=campaign_windows,
        clean_schedules=clean_schedules,
        net_schedules=net_schedules,
        rounds=tuple(
            Round(
                explore=tuple(
                    job[0]
                    for job, at in zip(EXPLORATIONS, explore_rounds)
                    if at == index
                ),
                clean=tuple(
                    (target, seed)
                    for target in CLEAN_TARGETS
                    for seed in seeds(clean_campaigns)
                ),
                fischer=seeds(fischer_campaigns),
                net=seeds(net_campaigns),
            )
            for index in range(rounds)
        ),
    )


class VerifySection:
    name = "verify"

    def __init__(self, inputs: VerifyInputs, recorder: Optional[Recorder] = None):
        self.inputs = inputs
        self.recorder = recorder
        self.out = SectionResult(self.name)
        self.probe = EngineProbe()
        self.explored: dict = {}
        self.explore_s: List[float] = []
        self.explore_speeds: List[float] = []
        self.campaign_speeds: List[float] = []
        self.runs: List[int] = []
        self.campaign_s: List[float] = []

    def round(self, index: int) -> None:
        spec = self.inputs.rounds[index]
        scope = probe_scope(self.probe) if self.recorder is not None else nullcontext()
        # Machine speed is sampled before, between and after the timed
        # units; each unit is rescaled by the samples on either side of it.
        speeds = [speed()]
        with instrumented(self.recorder, _install):
            if spec.explore:
                explored = len(self.explore_s)
                self._explore(spec.explore)
                speeds.append(speed())
                factor = (speeds[-2] + speeds[-1]) / 2
                self.explore_speeds.extend([factor] * (len(self.explore_s) - explored))
            with scope:
                self._campaigns(spec)
        speeds.append(speed())
        self.out.speeds.extend(speeds)
        self.campaign_speeds.append((speeds[-2] + speeds[-1]) / 2)
        print(
            f"verify round {index}: {self.runs[-1]} campaign runs in "
            f"{self.campaign_s[-1]:.3f} s at speed {self.campaign_speeds[-1]:.3f}"
            + (f", explorations in {self.explore_s[-1]:.3f} s at speed "
               f"{self.explore_speeds[-1]:.3f}" if spec.explore else ""),
            flush=True,
        )

    def _span(self, name: str):
        return nullcontext() if self.recorder is None else self.recorder.span(name)

    def _explore(self, names: Tuple[str, ...]) -> None:
        rec, out = self.recorder, self.out
        started = time.perf_counter()
        jobs = []
        for name, build, processes, max_ops, expect_violations in EXPLORATIONS:
            if name not in names:
                continue
            lock = build(RegisterNamespace(("perfbench", name)))
            factories = {
                pid: (lambda p, lock=lock: mutex_session(lock, p, sessions=1, cs_duration=1.0))
                for pid in range(processes)
            }
            jobs.append((name, factories, max_ops, expect_violations))
        built = time.perf_counter()
        before = dict(rec.calls) if rec is not None else {}
        states = transitions = 0
        for name, factories, max_ops, expect_violations in jobs:
            with self._span("verify.explorer"):
                outcome = explore(
                    factories,
                    [MutualExclusionProperty()],
                    max_ops=max_ops,
                    stop_at_first_violation=False,
                )
            out.attempted += 1
            if not outcome.complete:
                raise CheckFailed(f"verify: exploration {name} did not complete")
            if bool(outcome.violations) != expect_violations:
                raise CheckFailed(
                    f"verify: exploration {name} found {len(outcome.violations)} "
                    f"violations, expected {'some' if expect_violations else 'none'}"
                )
            states += outcome.states
            transitions += outcome.transitions
        done = time.perf_counter()
        out.setup.append(built - started)
        self.explore_s.append(done - built)
        out.count("verify.explorer.states", states)
        out.count("verify.explorer.transitions", transitions)
        if rec is not None:
            for name in ("verify.sandbox.build", "verify.sandbox.step", "verify.properties"):
                self.explored[name] = (
                    self.explored.get(name, 0) + rec.calls[name] - before.get(name, 0)
                )
            self.explored["explorations"] = self.explored.get("explorations", 0) + len(jobs)
            self.explored["seconds"] = self.explored.get("seconds", 0.0) + done - built

    def _campaigns(self, spec: Round) -> None:
        out = self.out
        runs = steps = 0
        seconds = 0.0
        for target_name, seed in spec.clean:
            target = sim_target(target_name)
            campaign = sample_sim_campaign(
                seed, pids=target.pids, windows=self.inputs.campaign_windows
            )
            started = time.perf_counter()
            with self._span("chaos.campaign"):
                report = run_sim_campaign(
                    target, campaign, schedules=self.inputs.clean_schedules
                )
            seconds += time.perf_counter() - started
            runs += report.schedules_run
            steps += report.total_steps
            if not report.ok:
                raise CheckFailed(
                    f"verify: clean target {target_name} violated under "
                    f"campaign {seed}: {report.failing.violations[0]!r}"
                )
        fischer = sim_target("fischer_n3")
        for seed in spec.fischer:
            campaign = sample_sim_campaign(
                seed, pids=fischer.pids, windows=self.inputs.campaign_windows
            )
            started = time.perf_counter()
            with self._span("chaos.campaign"):
                report = run_sim_campaign(fischer, campaign, schedules=FISCHER_SCHEDULES)
            seconds += time.perf_counter() - started
            runs += report.schedules_run
            steps += report.total_steps
            if report.ok:
                # The expected verdict is a find; a miss is a failed operation.
                out.failed += 1
                continue
            self._shrink_and_replay(fischer, campaign, report, seed)
        for seed in spec.net:
            campaign = sample_net_campaign(seed)
            started = time.perf_counter()
            with self._span("chaos.campaign"):
                report = run_net_campaign(campaign, schedules=self.inputs.net_schedules)
            seconds += time.perf_counter() - started
            runs += report.schedules_run
            steps += report.total_steps
            if not report.ok:
                raise CheckFailed(
                    f"verify: ABD run not linearizable under campaign {seed}: "
                    f"{report.failing.violations[0]!r}"
                )
        out.attempted += runs + len(spec.fischer)
        self.runs.append(runs)
        self.campaign_s.append(seconds)
        out.count("chaos.runner.runs", runs)
        out.count("chaos.runner.steps", steps)

    def _shrink_and_replay(self, fischer, campaign, report, seed: str) -> None:
        violation = report.failing.violations[0]
        with self._span("chaos.shrink"):
            shrunk = shrink_sim(
                fischer, campaign, report.failing.schedule, monitor=violation.monitor
            )
        if shrunk is None:
            raise CheckFailed(f"verify: Fischer find under {seed} did not shrink")
        self.out.count("chaos.shrink.executions", shrunk.executions)
        replayed = run_sim(
            fischer,
            shrunk.campaign,
            schedule=list(shrunk.payload),
            stop_monitor=violation.monitor,
        )
        if replayed.find(violation.monitor) != shrunk.violation:
            raise CheckFailed(
                f"verify: shrunk Fischer schedule under {seed} replayed to "
                f"{replayed.violations!r}, not {shrunk.violation!r}"
            )

    def result(self) -> SectionResult:
        out = self.out
        out.metrics["wall.explore_s"] = sum(self.explore_s)
        out.metrics["explore_s"] = sum(
            at_reference_speed(self.explore_s, self.explore_speeds)
        )
        # Campaign contents differ from round to round, so the rate is
        # taken over all rounds together rather than as a median.
        out.metrics["wall.campaign_runs_per_s"] = sum(self.runs) / sum(self.campaign_s)
        out.metrics["campaign_runs_per_s"] = sum(self.runs) / sum(
            at_reference_speed(self.campaign_s, self.campaign_speeds)
        )
        if self.recorder is not None:
            out.layer.update(_layer_metrics(self.recorder, self.probe, self.explored, out))
        return out


def _install(recorder: Recorder) -> None:
    recorder.wrap(Sandbox, "__init__", "verify.sandbox.build")
    recorder.wrap(Sandbox, "step", "verify.sandbox.step")
    recorder.wrap(Sandbox, "fingerprint", "verify.sandbox.fingerprint")
    for prop in (MutualExclusionProperty, AgreementProperty, ValidityProperty):
        recorder.wrap(prop, "check", "verify.properties")
    for monitor in (
        monitors_module.SafetyMonitor,
        monitors_module.ConvergenceMonitor,
    ):
        recorder.wrap(monitor, "on_step", "chaos.monitors")
    recorder.wrap(monitors_module.ConvergenceMonitor, "finalize", "chaos.monitors")
    recorder.wrap(monitors_module.TraceResilienceMonitor, "check_trace", "chaos.monitors")
    recorder.wrap(NetEngine, "run", "net", span=True)
    recorder.wrap(linearizability_module, "check_linearizability", "spec.linearizability")


def _layer_metrics(recorder: Recorder, probe: EngineProbe, explored: dict, result) -> dict:
    states = result.counts["verify.explorer.states"]
    transitions = result.counts["verify.explorer.transitions"]
    # Every visit after the roots follows a transition; visits that hit a
    # known fingerprint are revisits.
    revisits = transitions + explored["explorations"] - states
    return {
        "verify.explorer.states": states,
        "verify.explorer.transitions": transitions,
        "verify.explorer.states_per_s": states / explored["seconds"],
        "verify.explorer.dedup_ratio": revisits / transitions,
        "verify.sandbox.builds": explored["verify.sandbox.build"],
        "verify.sandbox.steps": explored["verify.sandbox.step"],
        "verify.sandbox.replay_ratio": explored["verify.sandbox.step"] / states,
        "verify.sandbox.step_s": recorder.self_time["verify.sandbox.step"],
        "verify.sandbox.fingerprint_s": recorder.self_time["verify.sandbox.fingerprint"],
        "verify.properties.checks": explored["verify.properties"],
        "verify.properties.busy_s": recorder.self_time["verify.properties"],
        "chaos.runner.runs": result.counts["chaos.runner.runs"],
        "chaos.runner.steps": result.counts["chaos.runner.steps"],
        "chaos.monitors.busy_s": recorder.self_time["chaos.monitors"],
        "chaos.shrink.executions": result.counts.get("chaos.shrink.executions", 0),
        "chaos.shrink.busy_s": recorder.inclusive["chaos.shrink"],
        "net.quorum.rtts": probe.quorum_rtts,
        "net.transport.messages_sent": probe.messages_sent,
        "net.busy_s": recorder.inclusive["net"],
        "spec.linearizability.busy_s": recorder.self_time["spec.linearizability"],
    }
