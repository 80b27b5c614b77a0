"""Seed-sharded worker fabric for chaos campaigns.

A chaos campaign (:mod:`repro.chaos`) is a loop over independently
seeded runs.  This package turns that loop into a fabric:

* :mod:`~repro.parallel.shard` — split the run range into contiguous
  shards with master-seed-derived, worker-count-independent sub-seeds;
* :mod:`~repro.parallel.pool` — run shards on a spawn-safe
  ``multiprocessing`` pool, or entirely in-process with ``workers=1``
  (no pickling), with per-shard wall/throughput telemetry and loud
  worker-crash surfacing;
* :mod:`~repro.parallel.merge` — deterministically merge shard results
  so ``--workers N`` output is bit-identical to ``--workers 1``.

The determinism contract (sharding may never change *what* a campaign
finds, only how fast) is CI-gated: the ``parallel-determinism`` job
byte-compares the chaos summary JSON and trace JSONL across worker
counts, and any violation found in parallel replays through the
unchanged single-process ``repro.chaos`` pipeline.
"""

from .merge import RunRecord, merge_campaign_runs
from .pool import ShardResult, WorkerError, WorkerPool, timing_rows
from .shard import Shard, derive_subseeds, make_shards

__all__ = [
    "Shard",
    "derive_subseeds",
    "make_shards",
    "ShardResult",
    "WorkerError",
    "WorkerPool",
    "timing_rows",
    "RunRecord",
    "merge_campaign_runs",
]
