"""Exporters: JSONL round-trip, byte determinism, Chrome trace shape."""

import json

from repro.obs import (
    Tracer,
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_jsonl,
)
from repro.sim.trace import EventKind, TraceEvent


def _sample_records():
    tracer = Tracer()
    tracer.run_marker("sim", target="demo", pids=[0, 1])
    tracer.engine_run("sim", 1.0, [1, 0])
    tracer.event(TraceEvent(0, 0, EventKind.READ, 0.0, 0.5, "x"))
    tracer.event(TraceEvent(1, 1, EventKind.WRITE, 0.5, 2.0, "x",
                            exceeded_delta=True))
    tracer.msg_send(3, 0, 1, 1.0, 1.5)
    tracer.msg_recv(3, 0, 1, 1.6, 1.5)
    tracer.msg_drop(1, 0, 2.0)
    tracer.phase(0, "query", "r0", "start")
    tracer.phase(0, "query", "r0", "end")
    tracer.window(0.0, 4.0, [0], "timing")
    tracer.violation("mutual_exclusion", 3.0)
    tracer.event(TraceEvent(2, 0, EventKind.DONE, 4.0, 4.0))
    return tracer.take()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = _sample_records()
        path = tmp_path / "t.jsonl"
        count = write_jsonl(records, str(path))
        assert count == len(records)
        assert read_jsonl(str(path)) == records

    def test_bytes_are_deterministic(self):
        assert to_jsonl(_sample_records()) == to_jsonl(_sample_records())

    def test_lines_have_sorted_keys_and_compact_separators(self):
        line = to_jsonl(_sample_records()).splitlines()[2]
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )

    def test_empty_trace_is_empty_document(self):
        assert to_jsonl([]) == ""


class TestChromeTrace:
    def test_event_phases(self):
        doc = to_chrome_trace(_sample_records())
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "X" in phases  # op spans
        assert "s" in phases and "f" in phases  # message flow arrows
        assert "B" in phases and "E" in phases  # quorum phase pair
        assert "M" in phases  # process-name metadata
        # Timestamps are microseconds (ints when integral) — the op at
        # t0=0.5 lands at 500000us.
        write_spans = [e for e in events
                       if e["ph"] == "X" and e.get("name") == "write(x)"]
        assert write_spans and write_spans[0]["ts"] == 500000

    def test_document_is_json_serializable(self):
        json.dumps(to_chrome_trace(_sample_records()))
