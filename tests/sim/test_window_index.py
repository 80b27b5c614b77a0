"""`WindowIndex` against the linear scan it replaced.

The scan — test every window with ``start <= now < end`` — is kept here
as the oracle.  Seeded random window sets mix abutting, nested,
zero-length, unbounded (``end=inf``), all-process (``pids=None``) and
fixed-``duration`` windows; every boundary, the floats on either side of
it and random instants are queried.
"""

import math
import random

import pytest

from repro.sim.failures import TimingFailureWindow, WindowIndex
from repro.sim.registers import Register
from repro.sim.timing import (
    ConstantTiming,
    FailureWindowTiming,
    StepContext,
    TimingModel,
)

PIDS = (0, 1, 2, 3)


def scan_covering(windows, now):
    """The oracle: every window whose half-open span holds ``now``."""
    return tuple(w for w in windows if w.start <= now < w.end)


def scan_duration(base: TimingModel, windows, ctx: StepContext) -> float:
    """The oracle: the per-step scan `FailureWindowTiming` used to run."""
    nominal = base.shared_step_duration(ctx)
    worst = nominal
    for window in windows:
        if window.affects(ctx.pid, ctx.now):
            worst = max(worst, window.apply(nominal))
    return worst


def _random_window(rng: random.Random, anchors) -> TimingFailureWindow:
    pids = None if rng.random() < 0.3 else frozenset(
        rng.sample(PIDS, rng.randint(1, len(PIDS)))
    )
    duration = rng.choice([None, None, rng.uniform(0.5, 4.0)])
    stretch = rng.uniform(1.0, 6.0)
    kind = rng.random()
    if anchors and kind < 0.25:  # abut: start where an earlier window ends
        start = rng.choice(anchors).end
        if math.isinf(start):
            start = rng.uniform(0.0, 50.0)
        end = start + rng.uniform(0.5, 10.0)
    elif anchors and kind < 0.45:  # nest inside an earlier window
        outer = rng.choice(anchors)
        hi = min(outer.end, outer.start + 20.0)
        start = rng.uniform(outer.start, hi)
        end = rng.uniform(start, hi)
    elif kind < 0.55:  # zero length: covers nothing
        start = end = rng.choice([float(rng.randint(0, 50)), rng.uniform(0.0, 50.0)])
    elif kind < 0.62:  # never closes
        start, end = rng.uniform(0.0, 50.0), math.inf
    else:
        start = rng.choice([float(rng.randint(0, 50)), rng.uniform(0.0, 50.0)])
        end = start + rng.choice([1.0, rng.uniform(0.1, 15.0)])
    return TimingFailureWindow(start, end, pids, stretch, duration)


def _random_windows(seed: int, count: int):
    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        windows.append(_random_window(rng, windows))
    # Duplicates and repeats of an identical window must both be kept.
    if windows and rng.random() < 0.5:
        windows.append(rng.choice(windows))
    return windows


def _queries(seed: int, windows):
    rng = random.Random(seed ^ 0x5EED)
    times = [-1.0, 0.0, math.inf, -math.inf]
    for w in windows:
        for bound in (w.start, w.end):
            times += [
                bound,
                math.nextafter(bound, -math.inf),
                math.nextafter(bound, math.inf),
            ]
    times += [rng.uniform(-5.0, 80.0) for _ in range(200)]
    return times


def _ids(windows):
    return [id(w) for w in windows]


@pytest.mark.parametrize("seed", range(40))
def test_covering_matches_the_scan(seed):
    windows = _random_windows(seed, count=1 + seed % 25)
    index = WindowIndex(windows)
    for now in _queries(seed, windows):
        # Same windows, same (original) order: compare identities.
        assert _ids(index.covering(now)) == _ids(scan_covering(windows, now)), now


@pytest.mark.parametrize("seed", range(40))
def test_step_duration_matches_the_scan(seed):
    windows = _random_windows(seed, count=1 + seed % 25)
    base = ConstantTiming(0.5)
    model = FailureWindowTiming(base, windows)
    op = Register("wi_probe", 0).read()
    for now in _queries(seed, windows):
        for pid in PIDS:
            ctx = StepContext(pid=pid, op=op, now=now, step_index=0)
            assert model.shared_step_duration(ctx) == scan_duration(
                base, windows, ctx
            ), (now, pid)


def test_half_open_boundaries():
    inner = TimingFailureWindow(2.0, 3.0)
    outer = TimingFailureWindow(1.0, 4.0)
    after = TimingFailureWindow(4.0, 5.0)
    index = WindowIndex([inner, outer, after])
    assert index.covering(math.nextafter(1.0, 0.0)) == ()
    assert index.covering(1.0) == (outer,)
    assert index.covering(2.0) == (inner, outer)  # given order, not start order
    assert index.covering(3.0) == (outer,)
    assert index.covering(4.0) == (after,)  # abutting: end excluded, start included
    assert index.covering(5.0) == ()


def test_empty_and_degenerate_sets_cover_nothing():
    assert WindowIndex([]).covering(0.0) == ()
    zero = WindowIndex([TimingFailureWindow(1.0, 1.0)])
    assert zero.covering(1.0) == ()
    assert zero.covering(math.nextafter(1.0, 0.0)) == ()


def test_unbounded_window_covers_every_later_instant():
    forever = TimingFailureWindow(3.0, math.inf)
    index = WindowIndex([forever])
    assert index.covering(1e300) == (forever,)
    assert index.covering(math.inf) == ()
    assert index.covering(math.nextafter(3.0, 0.0)) == ()


def test_timing_windows_are_a_tuple():
    windows = [TimingFailureWindow(0.0, 1.0, stretch=2.0)]
    model = FailureWindowTiming(ConstantTiming(0.5), windows)
    windows.append(TimingFailureWindow(5.0, 6.0, stretch=2.0))
    assert model.windows == (TimingFailureWindow(0.0, 1.0, stretch=2.0),)
    assert model.last_failure_end == 1.0
    assert repr(model) == (
        "FailureWindowTiming(base=ConstantTiming(step=0.5), windows=1)"
    )
