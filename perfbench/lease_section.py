"""The live lease service section: open-loop Poisson load over loopback TCP.

``LeaseService`` with 4 shards, 1 keeper per shard, 3 replicas, a 20 ms
bound, keyspace 1024 and hold 0, driven by the seeded ``LoadGenerator``
at three rate rungs, each on a freshly started service.  Latency counts
from the scheduled arrival.  Below the knee a grant is a local
``LeaseCore`` operation and the keepers idle; at ``high`` the shard
pools run dry and the keeper's Algorithm 3 + ABD block reservation sits
on the critical path.

Load is generated in this process and thread, with no client
connections; the service's own replica and keeper endpoints are the
program under test.
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serve import LeaseService
from repro.serve.loadgen import LoadGenerator
from repro.serve.service import LeaseCore, TokensExhausted
from repro.serve.substrate import AsyncioSubstrate

from metrics import max_rps, nearest_rank, rung_passes, tail
from section import CheckFailed, SectionResult, instrumented
from tracing import Recorder

SHARDS = 4
KEEPERS = 1
REPLICAS = 3
BOUND_S = 0.02
KEYSPACE = 1024
RUNGS = (("low", 2000), ("mid", 5000), ("high", 8000))
P99_LIMIT_MS = 10.0
LAG_PERIOD_S = 0.005


def block_for(rate: float) -> int:
    """Tokens per refill, sized as ``python -m repro.serve load`` sizes them."""
    return max(1024, int(0.7 * rate / SHARDS) + 1)


@dataclass(frozen=True)
class LeaseInputs:
    duration: float
    # Per round, per rung: the (service seed, schedule seed) pair.
    rounds: Tuple[Tuple[Tuple[int, int], ...], ...]


def make_inputs(rng: random.Random, rounds: int, duration: float) -> LeaseInputs:
    return LeaseInputs(
        duration=duration,
        rounds=tuple(
            tuple((rng.getrandbits(32), rng.getrandbits(32)) for _ in RUNGS)
            for _ in range(rounds)
        ),
    )


class _AccountedLoad(LoadGenerator):
    """The stock generator plus open-loop accounting of the pump itself.

    ``lateness`` is how far behind its schedule the pump spawned each
    session; ``backlog`` is the sessions still in flight when the pump
    spawned its last one.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lateness: List[float] = []
        self.inflight_peak = 0
        self.backlog = 0

    def _spawn(self, index: int, scheduled: float) -> None:
        self.lateness.append(self._now() - scheduled)
        super()._spawn(index, scheduled)
        self.inflight_peak = max(self.inflight_peak, self._inflight)
        if index == self.clients - 1:
            self.backlog = self._inflight


async def _one_rung(rate: float, duration: float, seeds: Tuple[int, int]):
    service_seed, schedule_seed = seeds
    started = time.perf_counter()
    service = LeaseService(
        shards=SHARDS,
        keepers_per_shard=KEEPERS,
        replicas=REPLICAS,
        bound=BOUND_S,
        seed=service_seed,
        block=block_for(rate),
    )
    await service.start()
    setup = time.perf_counter() - started
    load = _AccountedLoad(
        service,
        clients=int(rate * duration),
        duration=duration,
        seed=schedule_seed,
        keyspace=KEYSPACE,
        hold=0.0,
    )
    try:
        report = await load.run()
    finally:
        await service.close()
    return setup, load, report, service.verify(), service.summary()


class _Rung:
    """What one rung accumulated over the rounds."""

    def __init__(self, name: str, rate: int) -> None:
        self.name = name
        self.rate = rate
        self.latencies: List[float] = []
        self.p50s: List[float] = []
        self.granted_rates: List[float] = []
        self.failed = 0
        self.drained = True

    def summary(self) -> Dict[str, float]:
        self.latencies.sort()
        p99 = tail(self.latencies, 99)
        if p99["beyond"] < 10:
            raise CheckFailed(f"lease {self.name}: too few samples for a p99: {p99}")
        rung = {
            "rate": self.rate,
            "p99_ms": p99["value"] * 1e3,
            "p50_ms": statistics.median(self.p50s),
            "granted_per_s": statistics.median(self.granted_rates),
            "failed": self.failed,
            "drained": self.drained,
        }
        print(
            f"lease {self.name}: median p50 {rung['p50_ms']:.3f} ms, pooled p99 "
            f"{rung['p99_ms']:.3f} ms over {p99['samples']} samples "
            f"({p99['beyond']} beyond) from {len(self.p50s)} rounds, "
            f"{'meets' if rung_passes(rung, P99_LIMIT_MS) else 'misses'} "
            f"the {P99_LIMIT_MS} ms limit",
            flush=True,
        )
        return rung


class LeaseSection:
    name = "lease"

    def __init__(self, inputs: LeaseInputs, recorder: Optional[Recorder] = None):
        self.inputs = inputs
        self.recorder = recorder
        self.out = SectionResult(self.name)
        self.probe = _ServeProbe() if recorder is not None else None
        self.rungs = [_Rung(name, rate) for name, rate in RUNGS]
        self.lateness: List[float] = []
        self.inflight_peak = 0

    def round(self, index: int) -> None:
        install = self.probe.install if self.probe is not None else None
        with instrumented(self.recorder, install):
            for rung, seeds in zip(self.rungs, self.inputs.rounds[index]):
                gc.collect()
                self._repetition(rung, seeds)

    def _repetition(self, rung: _Rung, seeds: Tuple[int, int]) -> None:
        out = self.out
        setup, load, report, violations, summary = asyncio.run(
            _measured(rung.rate, self.inputs.duration, seeds, self.probe)
        )
        out.setup.append(setup)
        failed = report["timeouts"] + report["shed"] + report["cancelled"] + report["errors"]
        if violations:
            raise CheckFailed(f"lease {rung.name}: audit violations {violations[:3]}")
        if report["granted"] + failed != report["clients"]:
            raise CheckFailed(
                f"lease {rung.name}: granted {report['granted']} + failed "
                f"{failed} != clients {report['clients']}"
            )
        ordered = sorted(load.latencies)
        rung.latencies.extend(ordered)
        rung.p50s.append(nearest_rank(ordered, 50) * 1e3)
        rung.granted_rates.append(report["granted"] / report["elapsed"])
        rung.failed += failed
        rung.drained = rung.drained and report["cancelled"] == 0
        self.lateness.extend(load.lateness)
        self.inflight_peak = max(self.inflight_peak, load.inflight_peak)
        out.attempted += report["clients"]
        out.failed += failed
        out.count(f"lease.{rung.name}.granted", report["granted"])
        print(
            f"lease {rung.name} {rung.rate}/s schedule {seeds[1]}: "
            f"{report['granted']} granted, {failed} failed, p50 "
            f"{rung.p50s[-1]:.3f} ms, pump lateness p99 "
            f"{nearest_rank(sorted(load.lateness), 99) * 1e3:.3f} ms, in flight "
            f"peak {load.inflight_peak}, {load.backlog} at pump end, "
            f"{report['cancelled']} cancelled at drain, "
            f"{summary['counters']['refills']} refills",
            flush=True,
        )

    def result(self) -> SectionResult:
        out = self.out
        rungs = [rung.summary() for rung in self.rungs]
        for rung, summary in zip(self.rungs, rungs):
            out.metrics[f"lease_p50_ms.{rung.name}"] = summary["p50_ms"]
            out.metrics[f"lease_p99_ms.{rung.name}"] = summary["p99_ms"]
        out.metrics["lease_max_rps"] = max_rps(rungs, P99_LIMIT_MS)
        if self.probe is not None:
            out.layer.update(self.probe.metrics(self.recorder))
            out.layer["serve.loadgen.lateness_ms_p99"] = (
                nearest_rank(sorted(self.lateness), 99) * 1e3
            )
            out.layer["serve.loadgen.inflight_peak"] = self.inflight_peak
        return out


async def _measured(rate, duration, seeds, probe):
    if probe is None:
        return await _one_rung(rate, duration, seeds)
    lag = asyncio.get_running_loop().create_task(probe.watch_loop())
    try:
        outcome = await _one_rung(rate, duration, seeds)
    finally:
        lag.cancel()
        await asyncio.gather(lag, return_exceptions=True)
    probe.collect(outcome[4])
    return outcome


class _ServeProbe:
    """Wraps the serve stack's public calls for the traced pass."""

    def __init__(self) -> None:
        self.lag: List[float] = []
        self.waits: List[float] = []
        self.dry_since: Dict[LeaseCore, float] = {}
        self.dry_s = 0.0
        self.rtts = 0
        self.messages = 0
        self._attempts: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_attempts", default=None
        )

    def install(self, rec: Recorder) -> None:
        clock = time.perf_counter
        attempts = self._attempts
        acquire = LeaseService.acquire
        grant = rec.timed(LeaseCore.grant, "serve.lease_core.grant")
        refill = rec.timed(LeaseCore.refill, "serve.keeper.refill")

        async def acquire_traced(service, key, ttl=None, timeout=None, holder=None):
            frame, token = rec.enter("serve.service.acquire", True, holder)
            tries = [0]
            reset = attempts.set(tries)
            try:
                lease = await acquire(service, key, ttl=ttl, timeout=timeout, holder=holder)
            finally:
                attempts.reset(reset)
                duration = rec.exit(frame, token)
            if tries[0] > 1 or lease is None:
                self.waits.append(duration)
            return lease

        def grant_traced(core, key, ttl, holder=None):
            tries = attempts.get()
            if tries is not None:
                tries[0] += 1
            try:
                return grant(core, key, ttl, holder)
            except TokensExhausted:
                self.dry_since.setdefault(core, clock())
                raise

        def refill_traced(core, base, limit):
            since = self.dry_since.pop(core, None)
            if since is not None:
                self.dry_s += clock() - since
            return refill(core, base, limit)

        rec.patch(LeaseService, "acquire", acquire_traced)
        rec.patch(LeaseCore, "grant", grant_traced)
        rec.patch(LeaseCore, "refill", refill_traced)
        rec.wrap(LeaseCore, "release", "serve.lease_core.release")
        rec.wrap(AsyncioSubstrate, "send", "serve.substrate.send")

    async def watch_loop(self) -> None:
        """Sample how late the event loop wakes a sleeping task."""
        clock = time.perf_counter
        while True:
            before = clock()
            await asyncio.sleep(LAG_PERIOD_S)
            self.lag.append(clock() - before - LAG_PERIOD_S)

    def collect(self, summary: dict) -> None:
        self.rtts += summary["net"]["quorum_rtts"]
        self.messages += summary["net"]["messages_sent"]

    def metrics(self, rec: Recorder) -> Dict[str, float]:

        def mean_us(name: str) -> float:
            calls = rec.calls[name]
            return rec.self_time[name] / calls * 1e6 if calls else 0.0

        return {
            "serve.loop.lag_ms_p99": nearest_rank(sorted(self.lag), 99) * 1e3,
            "serve.service.acquires": rec.calls["serve.service.acquire"],
            "serve.service.waits": len(self.waits),
            "serve.service.wait_ms_p99": (
                nearest_rank(sorted(self.waits), 99) * 1e3 if self.waits else 0.0
            ),
            "serve.lease_core.grant_us": mean_us("serve.lease_core.grant"),
            "serve.lease_core.release_us": mean_us("serve.lease_core.release"),
            "serve.keeper.refills": rec.calls["serve.keeper.refill"],
            "serve.keeper.dry_ms": self.dry_s * 1e3,
            "serve.quorum.rtts": self.rtts,
            "serve.substrate.messages_sent": self.messages,
            "serve.substrate.send_us": mean_us("serve.substrate.send"),
        }
