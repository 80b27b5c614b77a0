"""Which end-to-end metric each per-layer metric should move.

``BENCHMARK.json`` lists the per-layer metrics with their units; this
table records, for each, the end-to-end metrics a change to that layer
is expected to move.  Some lease figures are named here although they
are reported without a bound (see the entries below).
``test_metrics.py`` keeps this table and ``BENCHMARK.json`` in step.
"""

SIM = ("sim_ops_per_s", "consensus_runs_per_s")
GRANT_PATH = ("lease_p50_ms.low", "lease_p50_ms.mid", "lease_p50_ms.high", "lease_p99_ms.low")
LEASE = GRANT_PATH + ("lease_p99_ms.mid", "lease_p99_ms.high", "lease_max_rps")

MOVES = {
    "sim.engine.self_s": ("sim_ops_per_s",),
    "sim.engine.events": ("sim_ops_per_s",),
    "sim.engine.setup_s": ("consensus_runs_per_s",),
    "sim.timing.calls": ("sim_ops_per_s",),
    "sim.timing.busy_s": ("sim_ops_per_s",),
    "sim.timing.failures": ("sim_ops_per_s",),
    "sim.registers.reads": ("sim_ops_per_s",),
    "sim.registers.writes": ("sim_ops_per_s",),
    "sim.registers.busy_s": ("sim_ops_per_s",),
    "algorithms.busy_s": SIM,
    "sim.trace.events": SIM,
    "spec.busy_s": SIM,
    "verify.explorer.states": ("explore_s",),
    "verify.explorer.transitions": ("explore_s",),
    "verify.explorer.states_per_s": ("explore_s",),
    "verify.explorer.dedup_ratio": ("explore_s",),
    "verify.sandbox.builds": ("explore_s",),
    "verify.sandbox.steps": ("explore_s",),
    "verify.sandbox.replay_ratio": ("explore_s",),
    "verify.sandbox.step_s": ("explore_s", "campaign_runs_per_s"),
    "verify.sandbox.fingerprint_s": ("explore_s",),
    "verify.properties.checks": ("explore_s",),
    "verify.properties.busy_s": ("explore_s",),
    "chaos.runner.runs": ("campaign_runs_per_s",),
    "chaos.runner.steps": ("campaign_runs_per_s",),
    "chaos.monitors.busy_s": ("campaign_runs_per_s",),
    "chaos.shrink.executions": ("campaign_runs_per_s",),
    "chaos.shrink.busy_s": ("campaign_runs_per_s",),
    "net.quorum.rtts": ("campaign_runs_per_s",),
    "net.transport.messages_sent": ("campaign_runs_per_s",),
    "net.busy_s": ("campaign_runs_per_s",),
    "spec.linearizability.busy_s": ("campaign_runs_per_s",),
    "serve.loadgen.lateness_ms_p99": LEASE,
    "serve.loadgen.inflight_peak": LEASE,
    "serve.loop.lag_ms_p99": ("lease_p99_ms.low", "lease_p99_ms.mid", "lease_p99_ms.high"),
    "serve.service.acquires": GRANT_PATH,
    "serve.service.waits": ("lease_p99_ms.high",),
    "serve.service.wait_ms_p99": ("lease_p99_ms.high",),
    "serve.lease_core.grant_us": GRANT_PATH,
    "serve.lease_core.release_us": GRANT_PATH,
    "serve.keeper.refills": ("lease_p99_ms.high", "lease_max_rps"),
    "serve.keeper.dry_ms": ("lease_p99_ms.high", "lease_max_rps"),
    "serve.quorum.rtts": ("lease_p99_ms.high",),
    "serve.substrate.messages_sent": ("lease_p99_ms.high",),
    "serve.substrate.send_us": ("lease_p99_ms.high",),
    # End-to-end lease figures too unsteady on a shared 2-core machine to
    # gate on with a bound of at most 25%: host jitter stalls the event
    # loop for milliseconds, and at 8k/s the service runs at the knee,
    # where a slower spell tips it into queueing.  They are reported from
    # the untraced pass of a traced run, without a bound.
    "lease_p50_ms.low": (),
    "lease_p50_ms.mid": (),
    "lease_p50_ms.high": (),
    "lease_p99_ms.low": (),
    "lease_p99_ms.mid": (),
    "lease_p99_ms.high": (),
    "lease_max_rps": (),
    # Raw wall-clock values of the figures the end-to-end metrics give at
    # the reference machine speed, and that speed.
    "wall.sim_ops_per_s": ("sim_ops_per_s",),
    "wall.consensus_runs_per_s": ("consensus_runs_per_s",),
    "wall.explore_s": ("explore_s",),
    "wall.campaign_runs_per_s": ("campaign_runs_per_s",),
    "machine.speed": (),
    # The trace's own quality: how much wall time no layer span explains,
    # and what tracing cost.
    "trace.uncovered_share": (),
    "trace.overhead_s": (),
    "trace.overhead_share": (),
}
