"""Merge determinism: sharded output must equal the sequential run."""

from repro.chaos import Campaign
from repro.chaos.plan import sample_net_campaign, sample_sim_campaign
from repro.chaos.runner import (
    DEFAULT_MAX_STEPS,
    NetParams,
    _net_shard,
    _sim_shard,
    run_net_campaign,
    run_sim,
    run_sim_campaign,
    sim_target,
)
from repro.parallel import (
    RunRecord,
    Shard,
    WorkerPool,
    make_shards,
    merge_campaign_runs,
)

FISCHER = sim_target("fischer_n3")
# Fault-free: the uniform random scheduler, i.e. plain schedule fuzzing.
FUZZ = Campaign(substrate="sim", seed="mrg")
PAYLOAD = ("fischer_n3", FUZZ, DEFAULT_MAX_STEPS, False)


def _shard_parts(total, workers):
    return [
        _sim_shard(shard, PAYLOAD)
        for shard in make_shards(total, workers, master_seed=FUZZ.seed)
    ]


def _same_report(merged, sequential):
    assert merged.schedules_run == sequential.schedules_run
    assert merged.total_steps == sequential.total_steps
    assert merged.failing == sequential.failing


class TestFuzzMerge:
    def test_sharded_slices_merge_to_the_sequential_result(self):
        """The core contract: any partition reproduces the one-shot run."""
        sequential = run_sim_campaign(FISCHER, FUZZ, schedules=40)
        assert not sequential.ok  # a find: the merge must truncate at it
        for workers in (1, 3, 7):
            merged = merge_campaign_runs(FUZZ, _shard_parts(40, workers))
            _same_report(merged, sequential)

    def test_failures_sorted_by_run_index_even_out_of_order(self):
        parts = _shard_parts(40, 4)
        in_order = merge_campaign_runs(FUZZ, parts)
        reversed_ = merge_campaign_runs(FUZZ, list(reversed(parts)))
        _same_report(reversed_, in_order)

    def test_seed_keys_use_global_indices(self):
        records = _sim_shard(Shard(index=0, start=30, stop=40), PAYLOAD)
        assert [r.index for r in records] == list(range(30, 30 + len(records)))
        for record in records:
            outcome = run_sim(FISCHER, FUZZ, run_seed=str(record.index))
            assert record.steps == outcome.steps
            if record.outcome is not None:
                assert record.outcome.run_seed == str(record.index)


class TestNetMerge:
    def test_sharded_net_fuzz_merges_to_sequential(self):
        campaign = sample_net_campaign(5)
        sequential = run_net_campaign(campaign, schedules=6)
        parts = [
            _net_shard(shard, (campaign, NetParams(), False))
            for shard in make_shards(6, 3, master_seed=campaign.seed)
        ]
        merged = merge_campaign_runs(campaign, parts)
        assert sequential.ok and merged.ok
        _same_report(merged, sequential)

    def test_empty_parts(self):
        merged = merge_campaign_runs(FUZZ, [])
        assert merged.ok and merged.schedules_run == 0
        assert merged.total_steps == 0 and merged.trace_chunks == []


class TestCampaignMerge:
    def test_first_failure_rule_truncates_later_records(self):
        """Runs past the globally-first failure never reach the report."""
        campaign = sample_sim_campaign("mrg", pids=(0, 1, 2), windows=2)
        fail_at_4 = RunRecord(index=4, steps=11, outcome="failing-outcome")
        parts = [
            [RunRecord(0, 10), RunRecord(1, 10), fail_at_4],
            [RunRecord(2, 10), RunRecord(3, 10)],
            # A later shard also "failed" — sequential would never see it.
            [RunRecord(5, 10, outcome="later-failure"), RunRecord(6, 10)],
        ]
        report = merge_campaign_runs(campaign, parts)
        assert report.failing == "failing-outcome"
        assert report.schedules_run == 5
        assert report.total_steps == 51

    def test_all_clean_counts_everything(self):
        campaign = sample_sim_campaign("mrg", pids=(0, 1, 2), windows=2)
        parts = [[RunRecord(i, 7) for i in range(5)]]
        report = merge_campaign_runs(campaign, parts)
        assert report.ok
        assert report.schedules_run == 5 and report.total_steps == 35

    def test_sim_campaign_workers_match_sequential(self):
        """End to end: sequential loop vs real spawn workers, same report."""
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("demo-a-0", pids=target.pids, windows=6)
        sequential = run_sim_campaign(target, campaign, schedules=8)
        assert not sequential.ok  # this seed is known to find a violation
        with WorkerPool(2) as pool:
            parallel = run_sim_campaign(
                target, campaign, schedules=8, pool=pool
            )
        assert parallel.schedules_run == sequential.schedules_run
        assert parallel.total_steps == sequential.total_steps
        assert parallel.failing == sequential.failing
        assert parallel.shard_timing  # telemetry present, results untouched
