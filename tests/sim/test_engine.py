"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim import (
    ConstantTiming,
    CrashSchedule,
    Engine,
    FifoTieBreak,
    PidOrderTieBreak,
    ProcessState,
    RecoverSchedule,
    Register,
    RunStatus,
    SimulationError,
    delay,
    label,
    local_work,
    read,
    write,
)

X = Register("x", 0)


def writer(pid, value):
    yield write(X, value)
    return value


def reader(pid):
    v = yield read(X)
    return v


def test_single_process_runs_to_completion():
    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(writer(0, 7))
    res = eng.run()
    assert res.status is RunStatus.COMPLETED
    assert res.returns == {0: 7}
    assert res.end_time == 0.5


def test_memory_effect_at_completion_time():
    """A write linearizes at its completion, not its issue."""

    def slow_writer():
        yield write(X, 1)

    def fast_reader():
        v = yield read(X)
        return v

    eng = Engine(delta=10.0, timing=ConstantTiming(1.0))
    # Both ops issued at 0; both complete at 1.0; tie-break decides order.
    eng.spawn(slow_writer(), pid=0)
    eng.spawn(fast_reader(), pid=1)
    res = eng.run()
    # FIFO tie-break: pid 0 spawned first, so its write linearizes first.
    assert res.returns[1] == 1


def test_pid_order_tie_break_reverses_linearization():
    def w():
        yield write(X, 1)

    def r():
        v = yield read(X)
        return v

    eng = Engine(delta=10.0, timing=ConstantTiming(1.0), tie_break=PidOrderTieBreak([1, 0]))
    eng.spawn(w(), pid=0)
    eng.spawn(r(), pid=1)
    res = eng.run()
    assert res.returns[1] == 0  # the read went first


def test_delay_takes_exactly_requested():
    def prog():
        yield delay(3.0)

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(prog())
    res = eng.run()
    assert res.end_time == 3.0


def test_local_work_consumes_time():
    def prog():
        yield local_work(2.5)

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(prog())
    assert eng.run().end_time == 2.5


def test_labels_are_zero_duration():
    def prog():
        yield label("a")
        yield label("b")
        yield write(X, 1)

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(prog())
    res = eng.run()
    labels = [e for e in res.trace if e.kind == "label"]
    assert [e.label for e in labels] == ["a", "b"]
    assert all(e.duration == 0 for e in labels)


def test_max_time_stops_run():
    def spinner():
        while True:
            yield read(X)

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5), max_time=10.0)
    eng.spawn(spinner())
    res = eng.run()
    assert res.status is RunStatus.TIME_LIMIT
    assert res.end_time <= 10.0
    assert res.live_pids == [0]


def test_max_total_steps_stops_run():
    def spinner():
        while True:
            yield read(X)

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5), max_total_steps=25)
    eng.spawn(spinner())
    res = eng.run()
    assert res.status is RunStatus.STEP_LIMIT
    assert res.trace.shared_step_count() == 25


def test_crash_after_steps():
    def prog():
        yield write(X, 1)
        yield write(X, 2)
        yield write(X, 3)

    eng = Engine(
        delta=1.0,
        timing=ConstantTiming(0.5),
        crashes=CrashSchedule(after_steps={0: 2}),
    )
    eng.spawn(prog())
    res = eng.run()
    assert res.crashed_pids == [0]
    assert res.memory.peek(X) == 2  # the second write landed, the third did not


def test_crash_after_zero_steps_takes_no_step():
    def prog():
        yield write(X, 1)

    eng = Engine(
        delta=1.0, timing=ConstantTiming(0.5), crashes=CrashSchedule(after_steps={0: 0})
    )
    eng.spawn(prog())
    res = eng.run()
    assert res.crashed_pids == [0]
    assert res.memory.peek(X) == 0


def test_crash_at_time_discards_inflight_write():
    """An op whose linearization would fall at/after the crash is lost."""

    def prog():
        yield write(X, 1)  # completes at 2.0 > crash at 1.0

    eng = Engine(
        delta=5.0, timing=ConstantTiming(2.0), crashes=CrashSchedule(at_time={0: 1.0})
    )
    eng.spawn(prog())
    res = eng.run()
    assert res.crashed_pids == [0]
    assert res.memory.peek(X) == 0


def test_crash_at_time_after_completion_keeps_effect():
    def prog():
        yield write(X, 1)  # completes at 0.5 < crash at 1.0
        yield delay(10.0)

    eng = Engine(
        delta=5.0, timing=ConstantTiming(0.5), crashes=CrashSchedule(at_time={0: 1.0})
    )
    eng.spawn(prog())
    res = eng.run()
    assert res.crashed_pids == [0]
    assert res.memory.peek(X) == 1


def test_crash_as_last_event_advances_the_clock():
    """The run ends at the crash instant, not at the last completion."""

    def prog():
        while True:
            yield delay(10.0)

    eng = Engine(
        delta=1.0, timing=ConstantTiming(1.0), crashes=CrashSchedule(at_time={0: 25.0})
    )
    eng.spawn(prog())
    res = eng.run()
    assert res.crashed_pids == [0]
    assert res.end_time == 25.0
    assert res.end_time == res.trace.end_time


def test_stale_crash_does_not_move_time():
    """A crash for a finished process, or for an incarnation that already
    died and restarted, takes no effect and leaves the clock alone."""

    def prog(pid):
        yield write(X, pid)

    eng = Engine(
        delta=1.0,
        timing=ConstantTiming(0.5),
        crashes=CrashSchedule(at_time={0: 10.0, 1: 10.0}, after_steps={1: 0}),
        recoveries=RecoverSchedule(at_time={1: 2.0}),
    )
    eng.spawn(prog(0), pid=0)
    eng.spawn(prog(1), pid=1, factory=prog)
    res = eng.run()
    assert res.crashed_pids == []
    assert res.end_time == 2.5
    assert res.end_time == res.trace.end_time


def test_exceeded_delta_marked_in_trace():
    eng = Engine(delta=0.4, timing=ConstantTiming(0.5))
    eng.spawn(writer(0, 1))
    res = eng.run()
    assert len(res.trace.timing_failures()) == 1


def test_within_delta_not_marked():
    eng = Engine(delta=0.5, timing=ConstantTiming(0.5))
    eng.spawn(writer(0, 1))
    res = eng.run()
    assert res.trace.timing_failures() == []


def test_program_exception_wrapped():
    def bad():
        yield read(X)
        raise RuntimeError("boom")

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(bad())
    with pytest.raises(SimulationError, match="boom"):
        eng.run()


def test_yielding_non_op_rejected():
    def bad():
        yield 42

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(bad())
    with pytest.raises(SimulationError, match="non-operation"):
        eng.run()


def test_spawn_after_run_rejected():
    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(writer(0, 1))
    eng.run()
    with pytest.raises(RuntimeError):
        eng.spawn(writer(1, 2), pid=1)


def test_run_twice_rejected():
    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(writer(0, 1))
    eng.run()
    with pytest.raises(RuntimeError):
        eng.run()


def test_duplicate_pid_rejected():
    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(writer(0, 1), pid=0)
    with pytest.raises(ValueError):
        eng.spawn(writer(0, 2), pid=0)


def test_start_time_staggers_processes():
    def prog():
        v = yield read(X)
        return v

    def w():
        yield write(X, 9)

    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    eng.spawn(w(), pid=0)
    eng.spawn(prog(), pid=1, start_time=5.0)
    res = eng.run()
    assert res.returns[1] == 9  # started long after the write


def test_determinism_same_seeds_same_trace():
    from repro.sim import RandomTieBreak, UniformTiming

    def build():
        eng = Engine(
            delta=1.0,
            timing=UniformTiming(0.1, 0.9, seed=5),
            tie_break=RandomTieBreak(seed=6),
        )
        for pid in range(3):
            eng.spawn(writer(pid, pid), pid=pid)
        return eng.run()

    t1 = [(e.pid, e.kind, e.completed) for e in build().trace]
    t2 = [(e.pid, e.kind, e.completed) for e in build().trace]
    assert t1 == t2


def test_process_states_reported():
    eng = Engine(delta=1.0, timing=ConstantTiming(0.5))
    p = eng.spawn(writer(0, 1))
    eng.run()
    assert p.state is ProcessState.DONE
    assert p.shared_steps == 1
    assert p.finished_at == 0.5
