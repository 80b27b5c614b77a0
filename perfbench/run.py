"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload few-windows --seed 1 --seconds 30 --trace 0

Every run executes three sections on inputs drawn from ``--seed``: the
simulator (``sim_section``), the checkers (``verify_section``) and the
live lease service (``lease_section``), in five interleaved rounds.  The
workload fixes the input properties: how many timing-failure windows the
simulator runs and the chaos campaigns sample.  ``--seconds`` sets the
lease load time; the sim and verify inputs are fixed in size.

The interpreter-bound end-to-end figures (``sim_ops_per_s``,
``consensus_runs_per_s``, ``explore_s``, ``campaign_runs_per_s``) are
given at the reference machine speed of ``calibrate.py``; their raw
wall-clock values and the measured speed are reported by a traced run
as ``wall.*`` and ``machine.speed``.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same inputs twice, untraced then traced, fails if
any deterministic count differs between the two, reports the per-layer
metrics of the traced pass, and writes its spans as JSON lines under
``.perfbench/`` in the checkout.

Exit status: 0 with a result, 1 when an output check fails, 2 when the
repository's sources are missing or an argument is bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from typing import Dict, List

from metrics import covered_share, ok_share

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

ROUNDS = 5
# Fischer's exploration runs in round 1, Algorithm 3's in round 3, so a
# slow spell of the machine hits at most one of them.
EXPLORE_ROUNDS = (1, 3)
# Each lease rung runs once per round for this share of --seconds.
LEASE_SHARE = 1 / 40

WORKLOADS = {
    # name: (windows per Algorithm 3 run, per consensus run, per campaign)
    "few-windows": (20, 1, 6),
    "many-windows": (300, 12, 24),
}
CONSENSUS_RUNS = 150  # per round
# Per round: several small campaigns rather than one large one, so that
# the cost of a round does not hang on one sampled fault plan.
CLEAN_CAMPAIGNS = 4  # per clean target
CLEAN_SCHEDULES = 25
FISCHER_CAMPAIGNS = 3
NET_CAMPAIGNS = 4
NET_SCHEDULES = 10


def _load_program():
    """Import the program from this checkout's ``src``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _load_spec() -> dict:
    """The metric names and units this run must report, or exit 2."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


def make_inputs(workload: str, seed: int, seconds: float):
    import lease_section
    import sim_section
    import verify_section

    windows, consensus_windows, campaign_windows = WORKLOADS[workload]

    def rng(section: str) -> random.Random:
        return random.Random(f"perfbench:{workload}:{seed}:{section}")

    return {
        "sim": sim_section.make_inputs(
            rng("sim"), ROUNDS, windows, CONSENSUS_RUNS, consensus_windows
        ),
        "verify": verify_section.make_inputs(
            rng("verify"), ROUNDS, EXPLORE_ROUNDS, campaign_windows,
            CLEAN_CAMPAIGNS, CLEAN_SCHEDULES, FISCHER_CAMPAIGNS, NET_CAMPAIGNS,
            NET_SCHEDULES,
        ),
        "lease": lease_section.make_inputs(
            rng("lease"), ROUNDS, seconds * LEASE_SHARE
        ),
    }


def run_pass(inputs, recorder=None):
    """Run every section's rounds, interleaved; return results and wall span."""
    from lease_section import LeaseSection
    from sim_section import SimSection
    from verify_section import VerifySection

    sections = (
        SimSection(inputs["sim"], recorder),
        VerifySection(inputs["verify"], recorder),
        LeaseSection(inputs["lease"], recorder),
    )
    started = time.perf_counter()
    for index in range(ROUNDS):
        for section in sections:
            gc.collect()
            if recorder is None:
                section.round(index)
            else:
                with recorder.span(f"bench.{section.name}", req=index):
                    section.round(index)
    ended = time.perf_counter()
    return [section.result() for section in sections], started, ended


def end_to_end(results) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for result in results:
        metrics.update(result.metrics)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    lease = next(r for r in results if r.name == "lease")
    # One-off builds plus the median live-service start-up.
    metrics["setup_s"] = sum(
        sum(r.setup) for r in results if r.name != "lease"
    ) + statistics.median(lease.setup)
    metrics["machine.speed"] = statistics.median(
        speed for r in results for speed in r.speeds
    )
    metrics["ok_share"] = ok_share(attempted, failed)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def counts_of(results) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for result in results:
        counts.update(result.counts)
    return counts


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()

    spec = _load_spec()
    from section import CheckFailed
    from tracing import Recorder

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    try:
        results, started, ended = run_pass(inputs)
        if args.trace:
            recorder = Recorder()
            traced, traced_start, traced_end = run_pass(inputs, recorder)
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if not args.trace:
        metrics = end_to_end(results)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        untraced_counts, traced_counts = counts_of(results), counts_of(traced)
        if untraced_counts != traced_counts:
            drift = {
                key: (untraced_counts.get(key), traced_counts.get(key))
                for key in sorted(set(untraced_counts) | set(traced_counts))
                if untraced_counts.get(key) != traced_counts.get(key)
            }
            print(f"perfbench: tracing changed deterministic counts: {drift}",
                  file=sys.stderr)
            return 1
        # Layer metrics come from the traced pass; end-to-end figures too
        # unsteady to gate on come from the untraced one.
        metrics = end_to_end(results)
        for result in traced:
            metrics.update(result.layer)
        metrics["trace.uncovered_share"] = 1.0 - covered_share(
            recorder.covered, traced_start, traced_end
        )
        overhead = (traced_end - traced_start) - (ended - started)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / (ended - started)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        recorder.write_spans(os.path.join(
            ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"
        ))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
