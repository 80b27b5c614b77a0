"""Counter determinism: the property the whole perf gate rests on."""

import pytest

from repro.bench import get_scenario, make_document, run_scenario, scenario_names
from repro.bench.runner import render_document

# Cheap scenarios only — the full quick sweep is the CI bench job's work.
CHEAP = [
    "engine/pingpong",
    "engine/contention",
    "engine/delays_crashes",
    "engine/failure_windows",
    "explorer/fischer_n2",
    "experiments/e4_fastpath",
]


@pytest.mark.parametrize("name", CHEAP)
def test_two_runs_identical_counters(name):
    scenario = get_scenario(name)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.counters == second.counters


def test_counter_sections_serialize_byte_identical():
    scenario = get_scenario("engine/pingpong")
    docs = [
        make_document([run_scenario(scenario)], "quick") for _ in range(2)
    ]
    for doc in docs:
        doc["scenarios"]["engine/pingpong"].pop("wall_time_s")
    assert render_document(docs[0]) == render_document(docs[1])


def test_repeats_take_best_wall_and_verify_counters():
    result = run_scenario(get_scenario("engine/contention"), repeats=3)
    assert result.counters["shared_steps"] == 720
    with pytest.raises(ValueError):
        run_scenario(get_scenario("engine/contention"), repeats=0)


def test_repeat_counter_mismatch_raises():
    from repro.bench.scenarios import Scenario

    ticks = []

    def flaky():
        ticks.append(None)
        return {"ticks": len(ticks)}  # grows across repetitions

    scenario = Scenario("flaky", "nondeterministic on purpose", True, flaky)
    with pytest.raises(RuntimeError, match="different counters"):
        run_scenario(scenario, repeats=2)


def test_scenario_counters_nonempty_and_integral():
    result = run_scenario(get_scenario("engine/pingpong"))
    assert result.counters["events"] > 0
    assert all(isinstance(v, int) for v in result.counters.values())
    assert result.wall_time_s > 0


def test_explorer_scenario_reports_state_counts():
    result = run_scenario(get_scenario("explorer/fischer_n2"))
    assert result.counters["explorer_states"] > 0
    assert result.counters["explorer_violations"] > 0  # Fischer breaks


def test_quick_is_a_subset_of_full():
    quick, full = scenario_names("quick"), scenario_names("full")
    assert set(quick) < set(full)
    assert len(quick) >= 5


def test_unknown_mode_and_scenario_rejected():
    with pytest.raises(ValueError):
        scenario_names("nightly")
    with pytest.raises(KeyError):
        get_scenario("engine/nope")
