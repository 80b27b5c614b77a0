"""Fuzzed net schedules checked against the linearizability spec.

Random client workloads over the ABD emulation are chaos runs on the
net substrate: :func:`run_net_campaign` samples one workload per run
index and checks every register's history for linearizability.
"""

import pytest

from repro.chaos import Campaign, sample_net_campaign
from repro.chaos.monitors import ChaosViolation
from repro.chaos.runner import (
    CampaignReport,
    NetOutcome,
    NetParams,
    run_net,
    run_net_campaign,
    sample_net_workload,
)

PARAMS = NetParams()


def _outcomes(campaign, schedules):
    return [
        run_net(campaign, sample_net_workload(campaign, str(i), PARAMS),
                params=PARAMS, run_seed=str(i))
        for i in range(schedules)
    ]


class TestCampaign:
    def test_two_rotations_are_linearizable(self):
        # The fault-free baseline and a client crashing mid-operation —
        # the crash leaves pending invocations the checker must explain.
        clean = Campaign(substrate="net", seed="tier1")
        client_crash = Campaign(substrate="net", seed="tier1",
                                crash_at=((0, 2.5),))
        for campaign in (clean, client_crash):
            report = run_net_campaign(campaign, schedules=6)
            assert report.ok, report.failing
            assert report.schedules_run == 6
        assert sum(o.pending for o in _outcomes(clean, 6)) == 0
        crashed = _outcomes(client_crash, 6)
        assert all(o.ok for o in crashed)
        assert sum(o.pending for o in crashed) > 0

    def test_campaign_is_deterministic(self):
        campaign = sample_net_campaign(42)
        assert _outcomes(campaign, 6) == _outcomes(campaign, 6)

    def test_different_seeds_draw_different_schedules(self):
        a = _outcomes(sample_net_campaign(1), 6)
        b = _outcomes(sample_net_campaign(2), 6)
        assert a != b

    def test_schedules_exercise_real_operations(self):
        report = run_net_campaign(sample_net_campaign(7), schedules=6)
        assert report.total_steps > 0  # completed object operations
        assert report.ok


class TestReportShape:
    def test_violations_filter(self):
        campaign = Campaign(substrate="net", seed="0")
        bad = NetOutcome(
            campaign=campaign, workload=((), ()), run_seed="1",
            violations=[ChaosViolation("linearizability", "no order", 3)],
        )
        assert not bad.ok
        report = CampaignReport(campaign=campaign, schedules_run=2,
                                failing=bad)
        assert not report.ok
        assert "'1'" in repr(report)


@pytest.mark.slow
class TestAcceptanceCampaign:
    def test_thousand_plus_schedules_stay_linearizable(self):
        # The subsystem's acceptance bar: >= 1000 chaos runs under
        # crash-minority and delay-spike faults, all linearizable.
        campaigns = [
            sample_net_campaign(f"acceptance-{k}", faults=6) for k in range(8)
        ]
        assert all(c.spikes for c in campaigns)
        assert any(c.crash_at for c in campaigns)  # a replica minority
        runs = 0
        for campaign in campaigns:
            report = run_net_campaign(campaign, schedules=126)
            assert report.ok, report.failing
            runs += report.schedules_run
        assert runs == 1008
