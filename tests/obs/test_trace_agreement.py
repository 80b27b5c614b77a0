"""The tracer's step records are renderings of the run's `Trace`.

An engine builds each event once as a `TraceEvent`; the `op`, `label`,
`crash`, `restart`, `done` and `fault` records a `Tracer` collects must be
exactly those events, in trace order, with the field mapping spelled out
below.  Harness-only records (`engine`, `send`/`recv`/`drop`, `phase`,
...) have no trace counterpart and are filtered out.
"""

from repro.net import QuorumSystem
from repro.obs import Tracer, canonical, register_name, trace_scope
from repro.sim import (
    ConstantTiming,
    CrashSchedule,
    Engine,
    FailureWindowTiming,
    MemoryFault,
    RecoverSchedule,
    Register,
    RegisterNamespace,
    delay,
    failure_window,
    fetch_and_add,
    label,
    local_work,
)
from repro.sim.ops import CS_ENTER, CS_EXIT

STEP_RECORD_KINDS = {"op", "label", "crash", "restart", "done", "fault"}


def _reg(name):
    return canonical(register_name(name))


def _expected(event):
    """The record an event must render as: t0/t1 = issued/completed,
    xd = exceeded_delta, t = completed, reg = register."""
    if event.kind == "label":
        return {"kind": "label", "pid": event.pid, "label": event.label,
                "t": event.completed}
    if event.kind in ("crash", "restart", "done"):
        return {"kind": event.kind, "pid": event.pid, "t": event.completed}
    if event.kind == "fault":
        return {"kind": "fault", "reg": _reg(event.register), "t": event.completed}
    return {"kind": "op", "op": event.kind, "pid": event.pid,
            "reg": _reg(event.register), "t0": event.issued,
            "t1": event.completed, "xd": event.exceeded_delta}


def _step_records(tracer):
    return [r for r in tracer.records if r["kind"] in STEP_RECORD_KINDS]


def _mixed_run(tracer):
    ns = RegisterNamespace.unique("agree")
    x = ns.register("x")
    cells = ns.array("cell")

    def program(pid):
        for i in range(3):
            yield label(CS_ENTER, i)
            yield x.write(pid * 10 + i)
            value = yield x.read()
            yield cells[pid].write(value)
            yield local_work(0.25)
            yield label(CS_EXIT, i)
            yield delay(1.5)
            yield fetch_and_add(x, 1)
        return pid

    engine = Engine(
        delta=1.0,
        # Steps inside [2, 5) take 2.5 > Δ: timing failures.
        timing=FailureWindowTiming(
            ConstantTiming(step=0.5), [failure_window(start=2.0, end=5.0, stretch=5.0)]
        ),
        crashes=CrashSchedule(at_time={1: 4.0}),
        recoveries=RecoverSchedule(at_time={1: 7.0}),
        faults=[MemoryFault(3.0, x, 99)],
        tracer=tracer,
    )
    for pid in range(3):
        engine.spawn(program(pid), pid=pid, factory=program)
    return engine.run()


class TestEngineAgreement:
    def test_records_are_the_rendered_trace(self):
        tracer = Tracer()
        result = _mixed_run(tracer)
        assert result.completed
        events = list(result.trace)
        assert _step_records(tracer) == [_expected(e) for e in events]

    def test_run_covers_every_step_record_kind(self):
        tracer = Tracer()
        result = _mixed_run(tracer)
        kinds = {e.kind for e in result.trace}
        assert {"read", "write", "rmw", "delay", "local", "label",
                "crash", "restart", "done", "fault"} <= kinds
        assert result.trace.timing_failures()
        assert sum(r.get("xd", False) for r in tracer.records) == \
            len(result.trace.timing_failures())


class TestNetEngineAgreement:
    def test_quorum_run_records_are_the_rendered_trace(self):
        tracer = Tracer()
        register = Register("agree_q", 0)

        def client(reg):
            for i in range(3):
                yield reg.write(i)
                yield reg.read()
            yield label("END")

        with trace_scope(tracer):
            system = QuorumSystem(clients=2, replicas=3, bound=1.0, seed=9)
            result = system.run([client(register) for _ in range(2)])
        assert result.completed
        events = list(result.trace)
        assert {"send", "recv", "label", "done"} <= {e.kind for e in events}
        assert _step_records(tracer) == [_expected(e) for e in events]
