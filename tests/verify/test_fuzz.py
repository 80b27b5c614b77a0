"""Schedule fuzzing: a chaos campaign with an empty fault plan.

With no windows and no crashes the chaos scheduler picks uniformly among
the enabled processes — the standard asynchronous adversary — so
fuzzing a program means wrapping it in an ad-hoc :class:`SimTarget` and
running :func:`run_sim_campaign` on ``Campaign(substrate="sim", ...)``.
"""

import pytest

from repro.chaos import Campaign
from repro.chaos.runner import SimTarget, run_sim, run_sim_campaign, sim_target
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.sim import ops
from repro.sim.failures import failure_window
from repro.sim.registers import Register
from repro.verify import (
    AgreementProperty,
    InvariantProperty,
    ValidityProperty,
    replay_schedule,
)

X = Register("fz", 0)


def _writer(pid):
    yield ops.write(X, pid)


def _incrementer(pid):
    v = yield ops.read(X)
    yield ops.write(X, v + 1)


def _target(program, properties=(), max_ops=200, pids=(0, 1)):
    """An ad-hoc target: fresh factories and properties per run."""

    def build():
        return {pid: program for pid in pids}, list(properties), {"fz": X}

    return SimTarget("adhoc", "ad-hoc fuzz target", build, max_ops=max_ops,
                     pids=tuple(pids), expect_violation=False)


def _x_below(bound):
    return InvariantProperty(lambda sb: sb.memory.peek(X) < bound,
                             name=f"x<{bound}", message=f"x hit {bound}")


def _fuzz(target, schedules, seed):
    return run_sim_campaign(target, Campaign(substrate="sim", seed=str(seed)),
                            schedules=schedules)


class TestMechanics:
    def test_counts_and_completion(self):
        target = _target(_writer, max_ops=5)
        report = _fuzz(target, schedules=10, seed=1)
        assert report.ok
        assert report.schedules_run == 10
        assert report.total_steps == 20
        campaign = report.campaign
        assert all(run_sim(target, campaign, run_seed=str(i)).done
                   for i in range(10))

    def test_deterministic_per_seed(self):
        target = _target(_incrementer)
        a = _fuzz(target, schedules=5, seed=3)
        b = _fuzz(target, schedules=5, seed=3)
        assert a.total_steps == b.total_steps
        assert [run_sim(target, a.campaign, run_seed=str(i)).schedule
                for i in range(5)] == \
            [run_sim(target, b.campaign, run_seed=str(i)).schedule
             for i in range(5)]

    def test_violation_schedule_replayable(self):
        target = _target(_incrementer, [_x_below(2)])
        report = _fuzz(target, schedules=100, seed=0)
        assert not report.ok
        schedule = report.failing.schedule
        replayed = run_sim(target, report.campaign, schedule=list(schedule))
        assert replayed.violations == report.failing.violations
        sb = replay_schedule({0: _incrementer, 1: _incrementer}, schedule,
                             max_ops=200)
        assert sb.memory.peek(X) == 2

    def test_negative_schedules_rejected(self):
        with pytest.raises(ValueError):
            _fuzz(_target(_writer), schedules=-1, seed=0)


class TestOnAlgorithms:
    def test_fischer_violation_found_by_fuzzing(self):
        report = _fuzz(sim_target("fischer_n3"), schedules=500, seed=4)
        assert not report.ok
        assert report.failing.find("mutual_exclusion") is not None

    def test_alg3_survives_heavy_fuzzing_n4(self):
        """Four processes — out of exhaustive reach, easy for the fuzzer."""
        report = _fuzz(sim_target("alg3_n4"), schedules=150, seed=5)
        assert report.ok, report.failing
        assert report.schedules_run == 150

    def test_consensus_safety_fuzzed_n4(self):
        report = _fuzz(sim_target("consensus_n4"), schedules=150, seed=6)
        assert report.ok, report.failing
        assert report.schedules_run == 150

    def test_biased_fuzzing_emulates_slow_process(self):
        """The most skewed speed mix — pid 0 stalled for the whole run —
        never breaks Algorithm 1."""
        consensus = TimeResilientConsensus(delta=1.0, max_rounds=3)
        inputs = {0: 0, 1: 1}

        def build():
            factories = {
                pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
                for pid in inputs
            }
            props = [AgreementProperty(), ValidityProperty(inputs)]
            return factories, props, {}

        target = SimTarget("alg1_n2", "Algorithm 1, 2 processes", build,
                           max_ops=60, pids=(0, 1), expect_violation=False)
        campaign = Campaign(
            substrate="sim", seed="7",
            windows=(failure_window(0.0, 1e9, pids=[0]),),
        )
        report = run_sim_campaign(target, campaign, schedules=200)
        assert report.ok, report.failing
        assert report.schedules_run == 200
        # The stall is real: pid 0 only moves once pid 1 has finished.
        outcome = run_sim(target, campaign, run_seed="0")
        first_zero = outcome.schedule.index(0)
        assert set(outcome.schedule[:first_zero]) == {1}
        assert outcome.done


class TestFailureCollection:
    """Each found violation arrives once per run with its replay recipe."""

    def test_each_property_fires_at_most_once_per_run(self):
        # The broken state persists for the rest of the run; the report
        # must not flood with one violation per subsequent step.
        target = _target(_incrementer, [_x_below(1)])
        campaign = Campaign(substrate="sim", seed="0")
        for index in range(10):
            outcome = run_sim(target, campaign, run_seed=str(index))
            assert [v.monitor for v in outcome.violations] == ["x<1"]

    def test_failure_carries_seed_key_and_replayable_schedule(self):
        target = _target(_incrementer, [_x_below(2)])
        report = _fuzz(target, schedules=100, seed=7)
        assert not report.ok
        failing = report.failing
        # The failing run is the last one run, seeded by its global index.
        assert failing.run_seed == str(report.schedules_run - 1)
        regenerated = run_sim(target, report.campaign, run_seed=failing.run_seed)
        assert regenerated.schedule == failing.schedule
        sb = replay_schedule({0: _incrementer, 1: _incrementer},
                             failing.schedule, max_ops=200)
        assert sb.memory.peek(X) == 2
