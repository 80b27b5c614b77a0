"""Tests for the benchmark's own metric arithmetic and trace bookkeeping.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import MOVES  # noqa: E402
from metrics import (  # noqa: E402
    covered_share,
    max_rps,
    nearest_rank,
    ok_share,
    quartile_spread,
    tail,
)
from tracing import Recorder  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentiles -------------------------------------------------------------


def test_nearest_rank_picks_an_observed_sample():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank(values, 100) == 100.0
    assert nearest_rank([7.0], 99) == 7.0
    # Rank ceil(0.99 * 10) = 10: with ten samples p99 is the maximum.
    assert nearest_rank([float(v) for v in range(10)], 99) == 9.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_tail_reports_sample_count_and_samples_beyond():
    report = tail(reversed([float(v) for v in range(1, 2001)]), 99)
    assert report == {"value": 1980.0, "samples": 2000, "beyond": 20}
    # With 100 samples only one lies beyond p99: too few to trust.
    assert tail(range(100), 99)["beyond"] == 1


# -- self time and coverage -------------------------------------------------------


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    with rec.span("outer"):
        clock.now = 1.0
        with rec.span("child"):
            clock.now = 3.0
        hot = rec.timed(lambda: setattr(clock, "now", clock.now + 0.5), "hot")
        hot()
        hot()
        clock.now = 10.0
    assert rec.inclusive["outer"] == 10.0
    assert rec.self_time["outer"] == pytest.approx(10.0 - 2.0 - 1.0)
    assert rec.self_time["child"] == 2.0
    assert rec.calls["hot"] == 2 and rec.self_time["hot"] == pytest.approx(1.0)
    # Only spans are kept, each naming its parent.
    outer, child = rec.spans
    assert (outer["name"], outer["parent"]) == ("outer", None)
    assert (child["name"], child["parent"], child["start"], child["end"]) == (
        "child", outer["id"], 1.0, 3.0)


def test_nested_hot_frames_subtract_from_each_other():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def inner():
        clock.now += 2.0

    timed_inner = rec.timed(inner, "inner")

    def outer():
        clock.now += 1.0
        timed_inner()

    rec.timed(outer, "outer")()
    assert rec.self_time == {"inner": 2.0, "outer": 1.0}
    assert rec.inclusive["outer"] == 3.0


def test_program_wrapper_times_each_resumption_and_keeps_the_result():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def program():
        clock.now += 1.0
        got = yield "op1"
        clock.now += 2.0
        return got * 2

    wrapped = rec.program(program(), "algorithms")
    assert next(wrapped) == "op1"
    with pytest.raises(StopIteration) as stop:
        wrapped.send(21)
    assert stop.value.value == 42
    assert rec.calls["algorithms"] == 2
    assert rec.self_time["algorithms"] == 3.0


def test_coverage_counts_overlaps_once_and_ignores_bench_frames():
    assert covered_share([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(0.4)
    assert covered_share([(-5, 1), (9, 20)], 0, 10) == pytest.approx(0.2)
    assert covered_share([], 0, 4) == 0.0
    clock = FakeClock()
    rec = Recorder(clock=clock)
    with rec.span("bench.section"):
        clock.now = 1.0
        with rec.span("layer"):
            clock.now = 4.0
            with rec.span("layer.child"):
                clock.now = 5.0
        clock.now = 8.0
    # Only the outermost layer span covers wall time.
    assert rec.covered == [(1.0, 5.0)]
    assert covered_share(rec.covered, 0.0, 8.0) == 0.5


def test_patch_and_restore():
    class Target:
        def work(self):
            return "done"

    original = Target.__dict__["work"]
    rec = Recorder(clock=FakeClock())
    rec.wrap(Target, "work", "target")
    assert Target().work() == "done"
    assert rec.calls["target"] == 1
    rec.restore()
    assert Target.__dict__["work"] is original


# -- lease rung selection ---------------------------------------------------------


def _rung(rate, p99_ms, failed=0, drained=True):
    return {"rate": rate, "p99_ms": p99_ms, "failed": failed,
            "drained": drained, "granted_per_s": rate * 0.99}


def test_max_rps_takes_the_highest_passing_rung():
    rungs = [_rung(2000, 2.0), _rung(5000, 4.0), _rung(8000, 25.0)]
    assert max_rps(rungs, 10.0) == 5000 * 0.99


def test_max_rps_skips_a_failing_rung():
    # mid fails on a timeout although its p99 is fine; high passes.
    rungs = [_rung(2000, 2.0), _rung(5000, 4.0, failed=1), _rung(8000, 9.0)]
    assert max_rps(rungs, 10.0) == 8000 * 0.99
    # A backlog that never drained fails the rung too.
    rungs = [_rung(2000, 2.0), _rung(5000, 4.0, drained=False)]
    assert max_rps(rungs, 10.0) == 2000 * 0.99


def test_max_rps_is_zero_when_no_rung_passes():
    assert max_rps([_rung(2000, 12.0), _rung(5000, 3.0, failed=2)], 10.0) == 0.0


# -- shares -------------------------------------------------------------------------


def test_ok_share():
    assert ok_share(10, 0) == 1.0
    assert ok_share(200, 3) == pytest.approx(0.985)
    with pytest.raises(ValueError):
        ok_share(0, 0)
    with pytest.raises(ValueError):
        ok_share(5, 6)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 9, 10, 12, 10, 8, 10, 11, 9]
    # quantiles(n=4) gives Q1 = 9, median 10, Q3 = 11 here.
    assert quartile_spread(values) == pytest.approx(0.2)


# -- the benchmark description --------------------------------------------------------


def test_every_layer_metric_names_the_end_to_end_metrics_it_moves():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert [m["name"] for m in spec["per_layer"]] == list(MOVES)
    for name, moved in MOVES.items():
        assert set(moved) <= names, name
