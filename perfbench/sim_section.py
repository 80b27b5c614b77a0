"""The simulator section: long Algorithm 3 runs and a consensus batch.

(a) Algorithm 3 (``default_time_resilient_mutex``), n=8, 60 sessions
    each, under ``UniformTiming`` jitter plus a fixed number of
    ``FailureWindowTiming`` windows; each trace is checked by
    ``check_mutex``.  Time goes to the engine loop, the timing model,
    register memory and the trace.
(b) Short Algorithm 1 runs (``run_consensus``, n=8, failure windows at
    the start, one seed per run), each checked by the consensus spec.
    Time goes to per-run engine set-up and spawning.

Every round runs one (a) run and one batch of (b) runs.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import repro.core.consensus as consensus_module
from repro.algorithms import mutex_session
from repro.core.consensus import run_consensus
from repro.core.mutex import default_time_resilient_mutex
from repro.sim import (
    Engine,
    EngineProbe,
    FailureWindowTiming,
    Memory,
    RandomTieBreak,
    RunStatus,
    TimingFailureWindow,
    UniformTiming,
    probe_scope,
)
from repro.sim.registers import RegisterNamespace
from repro.spec.mutex_spec import check_mutex

from calibrate import speed
from section import (
    CheckFailed,
    SectionResult,
    at_reference_speed,
    instrumented,
    median_rate,
)
from tracing import Recorder, TimedTiming

DELTA = 1.0
N = 8
SESSIONS = 60
CS = 0.5 * DELTA
NCS = 1.0 * DELTA
# Step jitter stays within Δ; only the failure windows stretch past it.
JITTER = (0.2 * DELTA, DELTA)
# An Algorithm 3 run with these sessions ends near t = 5 500Δ; windows
# land inside that span so every one of them can fire.
HORIZON = 5_000 * DELTA
CONSENSUS_HORIZON = 20 * DELTA


@dataclass(frozen=True)
class Timing:
    jitter_seed: int
    tie_seed: int
    windows: Tuple[TimingFailureWindow, ...]


@dataclass(frozen=True)
class Round:
    mutex: Timing
    consensus: Tuple[Tuple[Tuple[int, ...], Timing], ...]  # (proposals, timing)


def _window(rng: random.Random, horizon: float) -> TimingFailureWindow:
    start = rng.uniform(0.0, horizon)
    return TimingFailureWindow(
        start=start,
        end=start + rng.uniform(5.0, 40.0) * DELTA,
        pids=frozenset(rng.sample(range(N), rng.randint(1, N // 2))),
        stretch=rng.uniform(2.0, 8.0),
    )


def _timing(rng: random.Random, windows: int, horizon: float) -> Timing:
    return Timing(
        jitter_seed=rng.getrandbits(32),
        tie_seed=rng.getrandbits(32),
        windows=tuple(_window(rng, horizon) for _ in range(windows)),
    )


def make_inputs(
    rng: random.Random,
    rounds: int,
    windows: int,
    consensus_runs: int,
    consensus_windows: int,
) -> Tuple[Round, ...]:
    return tuple(
        Round(
            mutex=_timing(rng, windows, HORIZON),
            consensus=tuple(
                (
                    tuple(rng.randrange(2) for _ in range(N)),
                    _timing(rng, consensus_windows, CONSENSUS_HORIZON),
                )
                for _ in range(consensus_runs)
            ),
        )
        for _ in range(rounds)
    )


class SimSection:
    name = "sim"

    def __init__(self, inputs: Tuple[Round, ...], recorder: Optional[Recorder] = None):
        self.inputs = inputs
        self.recorder = recorder
        self.out = SectionResult(self.name)
        self.probe = EngineProbe()
        self.models: List[TimedTiming] = []
        self.steps: List[int] = []
        self.run_s: List[float] = []
        self.batch_s: List[float] = []
        self.run_speeds: List[float] = []
        self.batch_speeds: List[float] = []

    def round(self, index: int) -> None:
        spec = self.inputs[index]
        scope = probe_scope(self.probe) if self.recorder is not None else nullcontext()
        # Machine speed is sampled before, between and after the two timed
        # units; each unit is rescaled by the samples on either side of it.
        speeds = [speed()]
        with instrumented(self.recorder, self._install), scope:
            self._mutex(spec.mutex)
            speeds.append(speed())
            self._consensus(spec.consensus)
        speeds.append(speed())
        self.out.speeds.extend(speeds)
        self.run_speeds.append((speeds[0] + speeds[1]) / 2)
        self.batch_speeds.append((speeds[1] + speeds[2]) / 2)
        print(
            f"sim round {index}: {self.steps[-1]} shared steps in "
            f"{self.run_s[-1]:.3f} s at speed {self.run_speeds[-1]:.3f}, "
            f"{len(spec.consensus)} consensus runs in {self.batch_s[-1]:.3f} s "
            f"at speed {self.batch_speeds[-1]:.3f}",
            flush=True,
        )

    def _model(self, timing: Timing):
        model = FailureWindowTiming(
            UniformTiming(*JITTER, seed=timing.jitter_seed), timing.windows
        )
        if self.recorder is None:
            return model
        timed = TimedTiming(model, DELTA, self.recorder)
        self.models.append(timed)
        return timed

    def _mutex(self, timing: Timing) -> None:
        started = time.perf_counter()
        lock = default_time_resilient_mutex(
            N, delta=DELTA, namespace=RegisterNamespace(("perfbench", "alg3"))
        )
        engine = Engine(
            delta=DELTA,
            timing=self._model(timing),
            tie_break=RandomTieBreak(seed=timing.tie_seed),
        )
        for pid in range(N):
            engine.spawn(
                mutex_session(lock, pid, SESSIONS, cs_duration=CS, ncs_duration=NCS),
                pid=pid,
            )
        built = time.perf_counter()
        run = engine.run()
        ran = time.perf_counter()
        check = check_mutex
        if self.recorder is not None:
            check = self.recorder.timed(check_mutex, "spec", span=True)
        verdict = check(run.trace)
        self.out.setup.append(built - started)
        self.out.attempted += 1
        if run.status is not RunStatus.COMPLETED:
            raise CheckFailed(f"sim: Algorithm 3 run ended {run.status.value}")
        if verdict.violations:
            raise CheckFailed(f"sim: check_mutex failed: {verdict.violations[:3]}")
        self.steps.append(engine.total_shared_steps)
        self.run_s.append(ran - built)
        self.out.count("sim.mutex.shared_steps", engine.total_shared_steps)

    def _consensus(self, batch) -> None:
        steps = 0
        started = time.perf_counter()
        for proposals, timing in batch:
            outcome = run_consensus(
                list(proposals),
                delta=DELTA,
                timing=self._model(timing),
                tie_break=RandomTieBreak(seed=timing.tie_seed),
            )
            self.out.attempted += 1
            if not outcome.verdict.ok:
                raise CheckFailed(f"sim: consensus verdict {outcome.verdict!r}")
            steps += sum(p.shared_steps for p in outcome.run.processes.values())
        self.batch_s.append(time.perf_counter() - started)
        self.out.count("sim.consensus.shared_steps", steps)

    def result(self) -> SectionResult:
        out = self.out
        runs = [len(r.consensus) for r in self.inputs]
        out.metrics["wall.sim_ops_per_s"] = median_rate(self.steps, self.run_s)
        out.metrics["wall.consensus_runs_per_s"] = median_rate(runs, self.batch_s)
        out.metrics["sim_ops_per_s"] = median_rate(
            self.steps, at_reference_speed(self.run_s, self.run_speeds)
        )
        out.metrics["consensus_runs_per_s"] = median_rate(
            runs, at_reference_speed(self.batch_s, self.batch_speeds)
        )
        if self.recorder is not None:
            out.layer.update(self._layer_metrics())
        return out

    def _install(self, recorder: Recorder) -> None:
        init, spawn = Engine.__init__, Engine.spawn

        def spawn_timed(engine, program, *args, **kwargs):
            return spawn(engine, recorder.program(program, "algorithms"), *args, **kwargs)

        recorder.patch(Engine, "__init__", recorder.timed(init, "sim.engine.setup"))
        recorder.patch(Engine, "spawn", recorder.timed(spawn_timed, "sim.engine.setup"))
        recorder.wrap(Engine, "run", "sim.engine", span=True)
        for op in ("read", "write", "rmw"):
            recorder.wrap(Memory, op, "sim.registers")
        recorder.wrap(consensus_module, "check_consensus", "spec")

    def _layer_metrics(self) -> dict:
        rec, probe = self.recorder, self.probe
        return {
            "sim.engine.self_s": rec.self_time["sim.engine"],
            "sim.engine.events": probe.events,
            "sim.engine.setup_s": rec.inclusive["sim.engine.setup"],
            "sim.timing.calls": rec.calls["sim.timing"],
            "sim.timing.busy_s": rec.self_time["sim.timing"],
            "sim.timing.failures": sum(m.failures for m in self.models),
            "sim.registers.reads": probe.reads,
            "sim.registers.writes": probe.writes,
            "sim.registers.busy_s": rec.self_time["sim.registers"],
            "algorithms.busy_s": rec.self_time["algorithms"],
            "sim.trace.events": probe.trace_events,
            "spec.busy_s": rec.self_time["spec"],
        }
