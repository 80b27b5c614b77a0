"""Tracer unit behaviour: canonicalization, scoping, zero perturbation."""

from repro.net import QuorumSystem
from repro.obs import Tracer, active_tracer, canonical, register_name, trace_scope
from repro.sim.instrument import EngineProbe, probe_scope
from repro.sim.registers import Register, RegisterNamespace
from repro.sim.trace import EventKind, TraceEvent


class TestCanonical:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonical(value) == value

    def test_tuples_become_lists_and_sets_sort(self):
        assert canonical((1, (2, 3))) == [1, [2, 3]]
        assert canonical({3, 1, 2}) == [1, 2, 3]

    def test_dict_keys_become_sorted_strings(self):
        assert canonical({2: "b", 1: "a"}) == {"1": "a", "2": "b"}


class TestRegisterName:
    def test_flat_names_pass_through(self):
        assert register_name("x") == "x"
        assert register_name(7) == 7

    def test_unique_namespace_discriminator_is_dropped(self):
        ns_a = RegisterNamespace.unique("fischer")
        ns_b = RegisterNamespace.unique("fischer")
        reg_a = ns_a.register("x")
        reg_b = ns_b.register("x")
        assert reg_a.name != reg_b.name  # distinct raw names...
        assert register_name(reg_a.name) == "fischer.x"  # ...same rendering
        assert register_name(reg_b.name) == "fischer.x"

    def test_child_namespace_suffixes_are_kept(self):
        ns = RegisterNamespace.unique("alg3").child("inner")
        assert register_name(ns.register("turn").name) == "alg3.inner.turn"

    def test_array_indices_are_kept(self):
        ns = RegisterNamespace.unique("cons")
        cell = ns.array("votes")[2]
        assert register_name(cell.name) == "cons.votes[2]"


class TestScope:
    def test_off_by_default(self):
        assert active_tracer() is None

    def test_trace_scope_sets_and_restores(self):
        tracer = Tracer()
        with trace_scope(tracer):
            assert active_tracer() is tracer
            inner = Tracer()
            with trace_scope(inner):
                assert active_tracer() is inner
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_take_drains_and_resets(self):
        tracer = Tracer()
        tracer.event(TraceEvent(0, 1, EventKind.CRASH, 2.0, 2.0))
        first = tracer.take()
        assert [r["kind"] for r in first] == ["crash"]
        assert len(tracer) == 0
        tracer.event(TraceEvent(1, 1, EventKind.DONE, 3.0, 3.0))
        assert [r["kind"] for r in tracer.take()] == ["done"]


class TestZeroPerturbation:
    def test_traced_quorum_run_has_identical_probe_counters(self):
        """The tracer's core contract: observation only, no behaviour drift."""

        def run_once():
            probe = EngineProbe()
            reg = Register("obs_t", 0)
            with probe_scope(probe):
                system = QuorumSystem(clients=2, replicas=3, bound=1.0, seed=9)

                def prog(register):
                    for i in range(4):
                        yield register.write(i)
                        yield register.read()

                result = system.run([prog(reg) for _ in range(2)])
            assert result.completed
            return probe.snapshot()

        baseline = run_once()
        tracer = Tracer()
        with trace_scope(tracer):
            traced = run_once()
        assert traced == baseline
        assert len(tracer) > 0  # the run really was being traced
