"""Unit tests for failure descriptions."""

import math

import pytest

from repro.sim.failures import (
    CrashSchedule,
    TimingFailureWindow,
    failure_window,
    merge_windows,
)


class TestTimingFailureWindow:
    def test_affects_time_range(self):
        w = failure_window(1.0, 2.0)
        assert not w.affects(0, 0.99)
        assert w.affects(0, 1.0)
        assert w.affects(0, 1.99)
        assert not w.affects(0, 2.0)  # end-exclusive

    def test_affects_pid_filter(self):
        w = failure_window(0.0, 10.0, pids=[1, 2])
        assert w.affects(1, 5.0)
        assert not w.affects(3, 5.0)

    def test_apply_duration(self):
        w = failure_window(0.0, 1.0, duration=5.0)
        assert w.apply(0.5) == 5.0
        assert w.apply(7.0) == 7.0  # never shortens

    def test_apply_stretch(self):
        w = failure_window(0.0, 1.0, stretch=3.0)
        assert w.apply(0.5) == 1.5

    def test_violates_delta(self):
        w = failure_window(0.0, 1.0, duration=5.0)
        assert w.violates_delta(delta=1.0, nominal=0.5)
        assert not w.violates_delta(delta=10.0, nominal=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingFailureWindow(2.0, 1.0)
        with pytest.raises(ValueError):
            TimingFailureWindow(0.0, 1.0, stretch=0.5)
        with pytest.raises(ValueError):
            TimingFailureWindow(0.0, 1.0, duration=0.0)

    @pytest.mark.parametrize("field", ["start", "end", "stretch", "duration"])
    def test_nan_rejected(self, field):
        # A NaN compares false against everything, so such a window would
        # silently affect nothing (and end=NaN poisons last_failure_end).
        kwargs = dict(start=0.0, end=1.0, stretch=2.0, duration=3.0)
        kwargs[field] = math.nan
        with pytest.raises(ValueError):
            TimingFailureWindow(**kwargs)


class TestMergeWindows:
    def test_disjoint(self):
        spans = merge_windows([failure_window(0, 1), failure_window(2, 3)])
        assert spans == [(0, 1), (2, 3)]

    def test_overlapping_merged(self):
        spans = merge_windows([failure_window(0, 2), failure_window(1, 3)])
        assert spans == [(0, 3)]

    def test_touching_merged(self):
        spans = merge_windows([failure_window(0, 1), failure_window(1, 2)])
        assert spans == [(0, 2)]

    def test_empty(self):
        assert merge_windows([]) == []


class TestCrashSchedule:
    def test_defaults_to_no_crashes(self):
        cs = CrashSchedule.none()
        assert cs.crash_time(0) == math.inf
        assert cs.crash_step(0) == math.inf
        assert not cs.crashes(0)

    def test_at_time(self):
        cs = CrashSchedule(at_time={1: 5.0})
        assert cs.crash_time(1) == 5.0
        assert cs.crashes(1)

    def test_after_steps(self):
        cs = CrashSchedule(after_steps={2: 3})
        assert cs.crash_step(2) == 3

    def test_crash_all_but(self):
        cs = CrashSchedule.crash_all_but(survivor=1, pids=range(4), after_steps=2)
        assert not cs.crashes(1)
        assert all(cs.crash_step(p) == 2 for p in (0, 2, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashSchedule(at_time={0: -1.0})
        with pytest.raises(ValueError):
            CrashSchedule(after_steps={0: -1})


class TestMergeWindowsDegenerate:
    def test_zero_length_window_dropped(self):
        # start == end affects no step (start <= t < end is empty).
        assert merge_windows([failure_window(1.0, 1.0)]) == []

    def test_zero_length_window_does_not_bridge(self):
        spans = merge_windows([
            failure_window(0.0, 1.0),
            failure_window(1.5, 1.5),  # degenerate, must not appear
            failure_window(2.0, 3.0),
        ])
        assert spans == [(0.0, 1.0), (2.0, 3.0)]

    def test_zero_length_inside_span_is_absorbed_silently(self):
        spans = merge_windows([
            failure_window(0.0, 2.0),
            failure_window(1.0, 1.0),
        ])
        assert spans == [(0.0, 2.0)]

    def test_abutting_same_pid_windows_coalesce(self):
        spans = merge_windows([
            failure_window(0.0, 1.0, pids=[0]),
            failure_window(1.0, 2.0, pids=[0]),
            failure_window(2.0, 2.5, pids=[0]),
        ])
        assert spans == [(0.0, 2.5)]


class TestCrashScheduleValidation:
    def test_nan_crash_time_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule(at_time={0: float("nan")})

    def test_nan_crash_steps_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule(after_steps={0: float("nan")})

    def test_negative_still_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule(at_time={3: -0.5})
        with pytest.raises(ValueError):
            CrashSchedule(after_steps={3: -1})

    def test_zero_is_valid(self):
        cs = CrashSchedule(at_time={0: 0.0}, after_steps={1: 0})
        assert cs.crashes(0) and cs.crashes(1)
