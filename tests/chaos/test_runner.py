"""Tests for campaign execution on both substrates."""

import pytest

from repro.chaos.monitors import ChaosViolation
from repro.chaos.plan import Campaign, MemCorruption, sample_net_campaign, sample_sim_campaign
from repro.chaos.runner import (
    SIM_TARGETS,
    NetParams,
    SimTarget,
    run_net,
    run_net_campaign,
    run_sim,
    run_sim_campaign,
    sample_net_workload,
    sim_target,
)
from repro.sim import ops
from repro.sim.failures import failure_window
from repro.sim.registers import Register
from repro.verify.properties import InvariantProperty


class TestTargets:
    def test_registry_has_the_standard_targets(self):
        assert set(SIM_TARGETS) == {
            "fischer_n3",
            "alg3_n4",
            "consensus_n4",
            "dg_mutex_n3",
            "golab_consensus_n3",
        }

    def test_recover_flags(self):
        assert sim_target("dg_mutex_n3").recover
        assert sim_target("dg_mutex_n3").corruptible == ("S0", "S1", "S2")
        assert sim_target("golab_consensus_n3").recover
        assert not sim_target("fischer_n3").recover

    def test_unknown_target_rejected_with_suggestions(self):
        with pytest.raises(KeyError, match="fischer_n3"):
            sim_target("fischer_n99")

    def test_builds_are_fresh_per_call(self):
        target = sim_target("fischer_n3")
        f1, p1, r1 = target.build()
        f2, p2, r2 = target.build()
        assert f1 is not f2 and r1["x"] is not r2["x"]


def _counter_target(max_ops=10):
    """A tiny two-process target over one register, for focused tests."""
    register_box = {}

    def build():
        reg = Register("cnt", 0)
        register_box["reg"] = reg

        def prog(pid):
            for _ in range(3):
                v = yield ops.read(reg)
                yield ops.write(reg, v + 1)

        prop = InvariantProperty(
            lambda sb: sb.memory.peek(register_box["reg"]) < 99,
            name="no99", message="register hit 99",
        )
        return {0: prog, 1: prog}, [prop], {"cnt": reg}

    return SimTarget("counter", "test target", build, max_ops=max_ops,
                     pids=(0, 1), expect_violation=False)


class TestRunSimGeneration:
    def test_deterministic_per_run_seed(self):
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("det", pids=target.pids)
        a = run_sim(target, campaign, run_seed="0")
        b = run_sim(target, campaign, run_seed="0")
        c = run_sim(target, campaign, run_seed="1")
        assert a.schedule == b.schedule and a.violations == b.violations
        assert a.schedule != c.schedule

    def test_replay_of_generated_schedule_is_identical(self):
        # The core determinism claim: feeding the recorded schedule back
        # reproduces the execution exactly, violations included.
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("det", pids=target.pids)
        generated = run_sim(target, campaign, run_seed="3")
        replayed = run_sim(target, campaign, schedule=list(generated.schedule))
        assert replayed.schedule == generated.schedule
        assert replayed.violations == generated.violations

    def test_wrong_substrate_rejected(self):
        target = sim_target("fischer_n3")
        with pytest.raises(ValueError):
            run_sim(target, sample_net_campaign("n"))

    def test_crash_after_zero_silences_pid(self):
        campaign = Campaign(substrate="sim", seed="c", crash_after=((0, 0),))
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        assert 0 not in outcome.schedule
        assert 1 in outcome.schedule

    def test_crash_at_logical_time_stops_pid(self):
        campaign = Campaign(substrate="sim", seed="c", crash_at=((0, 2.0),))
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        assert 0 not in outcome.schedule[2:]

    def test_corruption_applied_at_logical_time(self):
        campaign = Campaign(
            substrate="sim", seed="c",
            corruptions=(MemCorruption(at=0.0, register="cnt", value=99),),
        )
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        violation = outcome.find("no99")
        assert violation is not None and violation.step == 1

    def test_unknown_corruption_register_is_an_error(self):
        campaign = Campaign(
            substrate="sim", seed="c",
            corruptions=(MemCorruption(at=0.0, register="nope", value=1),),
        )
        with pytest.raises(ValueError, match="nope"):
            run_sim(_counter_target(), campaign, run_seed="0")

    def test_window_freezes_affected_pid_while_others_run(self):
        # Pid 0 is stalled by an always-open window, so the scheduler must
        # drain pid 1 completely before touching pid 0.
        campaign = Campaign(
            substrate="sim", seed="w",
            windows=(failure_window(0.0, 1e9, pids=[0]),),
        )
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        first_zero = outcome.schedule.index(0)
        assert set(outcome.schedule[:first_zero]) == {1}
        assert outcome.done  # freezing is a bias, not a deadlock

    def test_stop_monitor_cuts_the_run_short(self):
        campaign = Campaign(
            substrate="sim", seed="c",
            corruptions=(MemCorruption(at=0.0, register="cnt", value=99),),
        )
        outcome = run_sim(_counter_target(), campaign, run_seed="0",
                          stop_monitor="no99")
        assert outcome.steps == 1 and not outcome.done

    def test_outcome_helpers(self):
        campaign = Campaign(substrate="sim", seed="c")
        outcome = run_sim(_counter_target(), campaign, run_seed="0")
        assert outcome.ok and outcome.find("no99") is None
        assert "ok" in repr(outcome)


class TestRunSimCampaign:
    def test_finds_fischer_violation(self):
        target = sim_target("fischer_n3")
        campaign = sample_sim_campaign("demo-a", pids=target.pids, windows=6)
        report = run_sim_campaign(target, campaign, schedules=20)
        assert not report.ok
        assert report.failing.find("mutual_exclusion") is not None
        assert report.schedules_run <= 20

    def test_clean_campaign_reports_ok(self):
        campaign = Campaign(substrate="sim", seed="clean")
        report = run_sim_campaign(_counter_target(), campaign, schedules=3)
        assert report.ok and report.schedules_run == 3
        assert "ok" in repr(report)

    def test_negative_schedules_rejected(self):
        campaign = Campaign(substrate="sim", seed="neg")
        with pytest.raises(ValueError, match="schedules"):
            run_sim_campaign(_counter_target(), campaign, schedules=-5)


class TestRunNet:
    def test_deterministic_and_clean_on_abd(self):
        params = NetParams()
        campaign = sample_net_campaign("net-1")
        workload = sample_net_workload(campaign, "0", params)
        a = run_net(campaign, workload, params=params, run_seed="0")
        b = run_net(campaign, workload, params=params, run_seed="0")
        assert a.ok  # ABD under faults must stay linearizable
        assert (a.operations, a.pending, a.status) == (
            b.operations, b.pending, b.status)

    def test_workload_sampling_deterministic(self):
        params = NetParams()
        campaign = sample_net_campaign("net-1")
        assert sample_net_workload(campaign, "0", params) == \
            sample_net_workload(campaign, "0", params)
        assert sample_net_workload(campaign, "0", params) != \
            sample_net_workload(campaign, "1", params)

    def test_workload_shape_validated(self):
        campaign = sample_net_campaign("net-1")
        with pytest.raises(ValueError):
            run_net(campaign, ((("read", 0, None),),), params=NetParams(clients=2))

    def test_wrong_substrate_rejected(self):
        campaign = sample_sim_campaign("s", pids=(0, 1))
        with pytest.raises(ValueError):
            run_net(campaign, ((), ()))

    def test_run_net_campaign_clean(self):
        campaign = sample_net_campaign("net-2")
        report = run_net_campaign(campaign, schedules=2)
        assert report.ok and report.schedules_run == 2

    def test_run_net_campaign_negative_schedules_rejected(self):
        with pytest.raises(ValueError, match="schedules"):
            run_net_campaign(sample_net_campaign("net-2"), schedules=-1)
