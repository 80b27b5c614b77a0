"""One op kernel: every executor takes op semantics from ``repro.sim.ops``.

The same programs run on the timed engine, the model checker's sandbox,
the thread backend and (for atomic read/write registers) the ABD quorum
emulation on the net engine; each must return the same value, announce
the same decision and leave the same register contents.  A second group
checks the op table itself, and a third that every executor rejects a
yielded non-op with a ``TypeError`` naming the pid and the object.
"""

import asyncio
import re

import pytest

from repro.net import QuorumSystem
from repro.runtime import ThreadedExecutor
from repro.serve import AsyncioDriver, AsyncioSubstrate
from repro.sim import ConstantTiming, Engine, SimulationError, ops
from repro.sim.registers import Register
from repro.sim.trace import EventKind
from repro.verify.sandbox import Sandbox

X = Register("kernel_x", 0)
C = Register("kernel_c", 10)
S = Register("kernel_s", "a")
REGISTERS = (X, C, S)


def full_vocabulary(pid):
    """Read, write, all three RMWs, delay, local work and labels."""
    yield ops.label(ops.ENTRY_START, pid)
    yield X.write(5)
    seen = yield X.read()
    swapped = yield ops.compare_and_swap(C, 10, 20)
    missed = yield ops.compare_and_swap(C, 10, 30)
    old = yield ops.fetch_and_add(C, 3)
    previous = yield ops.get_and_set(S, "b")
    yield ops.delay(1.0)
    yield ops.local_work(0.5)
    yield ops.local_work(0.0)
    yield ops.label(ops.DECIDED, seen)
    return (seen, swapped, missed, old, previous)


def read_write_only(pid):
    """The subset the quorum emulation supports (no RMW)."""
    yield ops.label(ops.ENTRY_START, pid)
    yield X.write(5)
    seen = yield X.read()
    yield ops.delay(1.0)
    yield X.write(seen + 1)
    yield ops.local_work(0.5)
    again = yield X.read()
    yield ops.label(ops.DECIDED, again)
    return (seen, again)


FULL = ((5, True, False, 20, "a"), {"kernel_x": 5, "kernel_c": 23, "kernel_s": "b"}, 5)
READ_WRITE = ((5, 6), {"kernel_x": 6, "kernel_c": 10, "kernel_s": "a"}, 6)


def run_engine(factory):
    engine = Engine(delta=1.0, timing=ConstantTiming(0.5))
    engine.spawn(factory(0), pid=0)
    result = engine.run()
    assert result.completed
    contents = {r.name: result.memory.peek(r) for r in REGISTERS}
    return result.returns[0], contents, result.trace.decisions()[0][1]


def run_sandbox(factory):
    sandbox = Sandbox({0: factory}, max_ops=100)
    while sandbox.enabled():
        sandbox.step(0)
    assert sandbox.done(0)
    contents = {r.name: sandbox.memory.peek(r) for r in REGISTERS}
    return sandbox.result(0), contents, sandbox.decisions[0]


def run_threaded(factory):
    executor = ThreadedExecutor(time_unit=1e-4)
    executor.spawn(factory(0), pid=0)
    result = executor.run(timeout=30.0)
    assert result.ok, result.errors
    contents = {r.name: result.store.peek(r) for r in REGISTERS}
    return result.returns[0], contents, result.decisions()[0]


def run_quorum(factory):
    system = QuorumSystem(clients=1, replicas=3, seed=0)
    result = system.run([factory(0)])
    assert result.completed
    contents = {}
    for register in REGISTERS:
        stored = [
            store[register.name]
            for store in system.replica_stores.values()
            if register.name in store
        ]
        # The highest timestamp is the register's linearized value.
        contents[register.name] = (
            max(stored, key=lambda pair: pair[0])[1] if stored else register.initial
        )
    return result.returns[0], contents, result.trace.decisions()[0][1]


class TestSameResults:
    @pytest.mark.parametrize(
        "run", [run_engine, run_sandbox, run_threaded],
        ids=["engine", "sandbox", "threaded"],
    )
    def test_full_vocabulary(self, run):
        assert run(full_vocabulary) == FULL

    @pytest.mark.parametrize(
        "run", [run_engine, run_sandbox, run_threaded, run_quorum],
        ids=["engine", "sandbox", "threaded", "quorum"],
    )
    def test_read_write_subset(self, run):
        assert run(read_write_only) == READ_WRITE


def _op_classes():
    return [
        value
        for value in vars(ops).values()
        if isinstance(value, type) and issubclass(value, ops.Op) and value is not ops.Op
    ]


class TestOpTable:
    def test_vocabulary_is_complete(self):
        names = {cls.__name__ for cls in _op_classes()}
        assert names == {
            "Read", "Write", "ReadModifyWrite", "Delay", "LocalWork",
            "Label", "Send", "Broadcast", "Recv",
        }

    def test_every_op_declares_a_kind_event_kind_knows(self):
        known = {v for k, v in vars(EventKind).items() if k.isupper()}
        for cls in _op_classes():
            assert cls.kind in known, cls

    def test_steps_and_message_ops_define_apply_and_nothing_else_does(self):
        for cls in _op_classes():
            assert not (cls.is_shared and cls.is_message), cls
            has_apply = callable(getattr(cls, "apply", None))
            assert has_apply == (cls.is_shared or cls.is_message), cls

    def test_shared_kinds_match_trace_step_kinds(self):
        shared = {cls.kind for cls in _op_classes() if cls.is_shared}
        assert shared == {EventKind.READ, EventKind.WRITE, EventKind.RMW}


def _yields_42(pid):
    yield 42


def _reject_engine():
    engine = Engine(delta=1.0, timing=ConstantTiming(0.5))
    engine.spawn(_yields_42(1), pid=1)
    with pytest.raises(SimulationError) as info:
        engine.run()
    return info.value


def _reject_sandbox():
    with pytest.raises(TypeError) as info:
        Sandbox({1: _yields_42}, max_ops=10)
    return info.value


def _reject_threaded():
    executor = ThreadedExecutor(time_unit=1e-4)
    executor.spawn(_yields_42(1), pid=1)
    return executor.run(timeout=30.0).errors[1]


def _reject_driver():
    async def body():
        substrate = AsyncioSubstrate(2, bound=0.05)
        await substrate.start()
        try:
            task = AsyncioDriver(substrate).spawn(_yields_42(1), pid=1)
            with pytest.raises(TypeError) as info:
                await task
            return info.value
        finally:
            await substrate.close()

    return asyncio.run(body())


def _reject_quorum():
    system = QuorumSystem(clients=2, replicas=3)
    with pytest.raises(TypeError) as info:
        next(system.emulate_registers(1, _yields_42(1)))
    return info.value


@pytest.mark.parametrize(
    "reject",
    [_reject_engine, _reject_sandbox, _reject_threaded, _reject_driver, _reject_quorum],
    ids=["engine", "sandbox", "threaded", "driver", "quorum"],
)
def test_non_op_is_a_type_error_naming_pid_and_object(reject):
    error = reject()
    # The engine reports program faults as a SimulationError caused by them.
    assert isinstance(error, TypeError) or isinstance(error.__cause__, TypeError)
    assert re.search(r"(pid|process) 1\b", str(error)), error
    assert "non-operation: 42" in str(error), error
