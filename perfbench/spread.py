"""Run a workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload few-windows --runs 10 [--first-seed 1]

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median, next to the bound ``BENCHMARK.json`` fixes for the metric.  Runs
are sequential; each run's result line is echoed as it lands.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from metrics import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        line = done.stdout.strip().splitlines()[-1]
        print(f"seed {seed}: {line}", flush=True)
        for name, metric in json.loads(line)["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(name)
        print(
            f"{name:34s} median {statistics.median(series):14.4f} "
            f"spread {spread:7.3f}"
            + (f"  bound {bound}" if bound is not None else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
