"""Pool semantics: in-process fallback, spawn path, crash surfacing."""

import os

import pytest

from repro.parallel import WorkerError, WorkerPool, make_shards, timing_rows

from .fabric import boom_worker, echo_subseeds_worker, square_worker


@pytest.fixture
def local_pool():
    """The in-process pool (``workers=1``): no children, no pickling."""
    with WorkerPool(1) as pool:
        yield pool


class TestInProcessFallback:
    def test_runs_every_shard_in_order(self, local_pool):
        shards = make_shards(10, 3)
        results = local_pool.run(square_worker, shards)
        assert [r.shard.index for r in results] == [0, 1, 2]
        values = [v for r in results for v in r.value]
        assert values == [i * i for i in range(10)]

    def test_executes_in_calling_process(self, local_pool):
        results = local_pool.run(square_worker, make_shards(4, 2))
        assert all(r.worker_pid == os.getpid() for r in results)

    def test_no_pickling_required(self, local_pool):
        """workers=1 bypasses pickling: lambdas work as worker and payload."""
        results = local_pool.run(
            lambda shard, payload: payload(shard.count),
            make_shards(6, 2),
            lambda count: count * 100,
        )
        assert [r.value for r in results] == [300, 300]

    def test_empty_shard_list(self, local_pool):
        assert local_pool.run(square_worker, []) == []

    def test_records_wall_time(self, local_pool):
        results = local_pool.run(square_worker, make_shards(4, 2))
        assert all(r.wall_seconds >= 0.0 for r in results)


class TestCrashSurfacing:
    def test_worker_exception_names_the_seed_range(self, local_pool):
        """A crashed worker fails the campaign, citing the shard's seeds."""
        shards = make_shards(12, 3)  # shard 1 covers [4, 8)
        with pytest.raises(WorkerError) as excinfo:
            local_pool.run(boom_worker, shards, 1)
        message = str(excinfo.value)
        assert "seeds [4, 8)" in message
        assert "worker exploded on purpose" in message
        assert excinfo.value.shard.index == 1

    def test_worker_exception_surfaces_from_spawn_pool(self):
        shards = make_shards(4, 2)
        with WorkerPool(2) as pool, pytest.raises(WorkerError) as excinfo:
            pool.run(boom_worker, shards, 0)
        assert "seeds [0, 2)" in str(excinfo.value)


class TestSpawnPool:
    def test_spawn_matches_in_process_and_is_reusable(self, local_pool):
        """One pool, several campaigns: same values as the fallback path."""
        shards = make_shards(9, 4, master_seed=7)
        sequential = local_pool.run(square_worker, shards)
        seq_seeds = local_pool.run(echo_subseeds_worker, shards)
        with WorkerPool(2) as pool:
            parallel = pool.run(square_worker, shards)
            par_seeds = pool.run(echo_subseeds_worker, shards)
        assert [r.value for r in parallel] == [r.value for r in sequential]
        assert [r.value for r in par_seeds] == [r.value for r in seq_seeds]
        assert all(r.worker_pid != os.getpid() for r in parallel)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestTimingRows:
    def test_rows_carry_shard_identity_and_tags(self, local_pool):
        results = local_pool.run(square_worker, make_shards(10, 3))
        rows = timing_rows(results, campaign="demo")
        assert [row["shard"] for row in rows] == [0, 1, 2]
        assert [(row["start"], row["stop"]) for row in rows] == [
            (0, 4), (4, 7), (7, 10),
        ]
        assert all(row["campaign"] == "demo" for row in rows)
        assert all(row["items"] in (3, 4) for row in rows)
        assert all("wall_s" in row and "worker_pid" in row for row in rows)
