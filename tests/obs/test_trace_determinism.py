"""Trace byte-determinism: sequential vs sharded, repeated replays.

The contract under test: a trace is a pure function of the seed.  The
same campaign run twice, or sharded across workers and merged in global
run-index order (`repro.parallel.merge`), must yield byte-identical
JSONL — the same property the summary JSON already satisfies, extended
to the record stream.  Both substrates go through one chunk path.
"""

from repro.chaos import Campaign, sample_net_campaign
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.runner import (
    DEFAULT_MAX_STEPS,
    NetParams,
    _net_shard,
    _sim_shard,
    run_net_campaign,
    run_sim_campaign,
    sim_target,
)
from repro.obs import to_jsonl
from repro.parallel import make_shards, merge_campaign_runs

ARTIFACT = "tests/chaos/artifacts/fischer_n3_violation.json"


def _chunk_bytes(chunks):
    return to_jsonl([r for _index, chunk in chunks for r in chunk])


def _merged_trace(campaign, worker, payload, total, workers):
    parts = [
        worker(shard, payload)
        for shard in make_shards(total, workers, master_seed=campaign.seed)
    ]
    return _chunk_bytes(merge_campaign_runs(campaign, parts).trace_chunks)


class TestLibraryMerge:
    def test_registers_shards_merge_to_the_sequential_trace(self):
        campaign = Campaign(substrate="sim", seed="5")
        sequential = run_sim_campaign(
            sim_target("consensus_n4"), campaign, schedules=12, trace=True
        )
        assert sequential.trace_chunks  # tracing actually happened
        payload = ("consensus_n4", campaign, DEFAULT_MAX_STEPS, True)
        assert _merged_trace(campaign, _sim_shard, payload, 12, 3) == \
            _chunk_bytes(sequential.trace_chunks)

    def test_net_shards_merge_to_the_sequential_trace(self):
        campaign = sample_net_campaign(3)
        sequential = run_net_campaign(campaign, schedules=4, trace=True)
        assert [index for index, _ in sequential.trace_chunks] == [0, 1, 2, 3]
        records = [r for _index, chunk in sequential.trace_chunks for r in chunk]
        assert sum(r["kind"] == "run" and r["substrate"] == "net"
                   for r in records) == 4
        payload = (campaign, NetParams(), True)
        assert _merged_trace(campaign, _net_shard, payload, 4, 2) == \
            _chunk_bytes(sequential.trace_chunks)

    def test_tracing_does_not_change_the_net_verdict(self):
        campaign = sample_net_campaign(3)
        plain = run_net_campaign(campaign, schedules=4)
        traced = run_net_campaign(campaign, schedules=4, trace=True)
        assert plain.trace_chunks == []
        assert (plain.schedules_run, plain.total_steps, plain.ok) == \
            (traced.schedules_run, traced.total_steps, traced.ok)


class TestCliTraces:
    def _traces(self, tmp_path, args):
        traces = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.jsonl"
            assert chaos_main(
                ["run", "--seed", "42", "--campaigns", "1", "--schedules", "12",
                 "--expect", "clean", "--workers", str(workers),
                 "--trace", str(path)] + args
            ) == 0
            traces.append(path.read_bytes())
        return traces

    def test_fuzz_trace_workers_2_is_byte_identical_to_workers_1(
        self, tmp_path
    ):
        t1, t2 = self._traces(tmp_path, ["--target", "alg3_n4", "--windows", "0"])
        assert t1 and t1 == t2

    def test_net_trace_workers_2_is_byte_identical_to_workers_1(self, tmp_path):
        t1, t2 = self._traces(tmp_path, ["--substrate", "net"])
        assert t1 and t1 == t2

    def test_replay_trace_is_identical_across_invocations(self, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert chaos_main(["replay", "--trace", str(t1), ARTIFACT]) == 0
        assert chaos_main(["replay", "--trace", str(t2), ARTIFACT]) == 0
        assert t1.read_bytes() and t1.read_bytes() == t2.read_bytes()
