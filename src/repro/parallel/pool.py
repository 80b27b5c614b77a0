"""Running shards on workers: spawn-safe pool with an in-process fallback.

:class:`WorkerPool` maps shard-worker functions over shards.  With
``workers == 1`` every shard runs **in the calling process** — no child
processes, no pickling of functions, payloads or results — which is both
the zero-dependency fallback path and the reference semantics the
multi-process path must reproduce bit-for-bit.  With ``workers > 1`` a
``multiprocessing`` pool using the **spawn** start method executes the
shards; spawn (rather than fork) is deliberate: children import modules
fresh, so worker functions must be module-level (picklable by reference)
and cannot smuggle inherited global state into the results — the same
discipline that keeps results identical across worker counts.

Worker exceptions never vanish into the pool: each shard's outcome is
captured (value or traceback) and a failing shard raises
:class:`WorkerError` naming the shard's seed range, so a crashed worker
fails the campaign loudly and reproducibly.

Every :class:`ShardResult` records the shard's wall-clock time and the
executing worker's pid, which is where the chaos CLI's
``--timing-json`` wall/throughput rows come from.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .shard import Shard

__all__ = [
    "ShardResult",
    "WorkerError",
    "WorkerPool",
    "timing_rows",
]

# A shard worker: module-level function of (shard, payload) -> result.
ShardWorker = Callable[[Shard, Any], Any]


@dataclass
class ShardResult:
    """One shard's outcome plus its execution telemetry."""

    shard: Shard
    value: Any = None
    wall_seconds: float = 0.0
    worker_pid: int = 0
    error: Optional[str] = None  # formatted traceback when the worker raised


class WorkerError(RuntimeError):
    """A shard's worker raised; the campaign must fail, not limp on."""

    def __init__(self, shard: Shard, detail: str):
        super().__init__(
            f"worker failed on {shard.describe()}: {detail.rstrip()}"
        )
        self.shard = shard


def _execute(task) -> ShardResult:
    """Run one shard (in whatever process this is) and capture the outcome.

    Module-level so the spawn pool can pickle it by reference; exceptions
    are returned as data because a traceback that dies inside
    ``Pool.map`` loses the shard identity the error report needs.
    """
    fn, shard, payload = task
    started = time.perf_counter()
    try:
        value = fn(shard, payload)
    except Exception:
        return ShardResult(
            shard=shard,
            wall_seconds=time.perf_counter() - started,
            worker_pid=os.getpid(),
            error=traceback.format_exc(),
        )
    return ShardResult(
        shard=shard,
        value=value,
        wall_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
    )


class WorkerPool:
    """A reusable mapping of shards onto workers.

    Create once per CLI invocation and reuse across campaigns — the
    spawn pool (children importing the package from scratch) is the
    expensive part, not the mapping.  Usable as a context manager.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def run(
        self, fn: ShardWorker, shards: Sequence[Shard], payload: Any = None
    ) -> List[ShardResult]:
        """Execute ``fn(shard, payload)`` for every shard; shard order kept.

        Raises :class:`WorkerError` for the lowest-indexed failing shard
        after all shards have been collected (so one bad shard cannot
        hide another's telemetry).
        """
        if not shards:
            return []
        tasks = [(fn, shard, payload) for shard in shards]
        if self.workers == 1:
            # In-process fallback: no pickling of fn, payload or values.
            results = [_execute(task) for task in tasks]
        else:
            if self._pool is None:
                import multiprocessing

                context = multiprocessing.get_context("spawn")
                self._pool = context.Pool(processes=self.workers)
            # chunksize=1: shards are coarse already; hand them out one
            # at a time so slow shards do not serialize behind fast ones.
            results = self._pool.map(_execute, tasks, chunksize=1)
        for result in results:
            if result.error is not None:
                raise WorkerError(result.shard, result.error)
        return results


def timing_rows(
    results: Sequence[ShardResult], **tags: Any
) -> List[Dict[str, Any]]:
    """Per-shard timing records for the ``--timing-json`` reports.

    ``tags`` (e.g. ``campaign="fischer_n3"``) are merged into every row.
    Wall times are telemetry, not results: they never enter the
    deterministic summaries the CI determinism gate compares.
    """
    rows = []
    for result in results:
        wall = result.wall_seconds
        rows.append(
            dict(
                tags,
                shard=result.shard.index,
                start=result.shard.start,
                stop=result.shard.stop,
                items=result.shard.count,
                wall_s=round(wall, 6),
                worker_pid=result.worker_pid,
                throughput_per_s=(
                    round(result.shard.count / wall, 3) if wall > 0 else None
                ),
            )
        )
    return rows
