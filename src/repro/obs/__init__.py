"""repro.obs — deterministic structured tracing, metrics, timeliness graphs.

The observability substrate over all three execution substrates: attach
a :class:`Tracer` (explicitly or via :func:`trace_scope`) and the timed
engine, the message fabric, and the chaos campaign harness emit canonical
span/event records; export them as JSONL or Chrome trace-event JSON;
fold them into metrics; mine per-link delay observations into a
timeliness graph.  ``python -m repro.obs summarize|convert|timeliness``
operates on stored JSONL traces.
"""

from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Histogram, compute_metrics, format_summary
from repro.obs.timeliness import (
    delay_observations,
    format_timeliness,
    mine_timeliness,
)
from repro.obs.tracer import (
    Tracer,
    active_tracer,
    canonical,
    register_name,
    trace_scope,
)

__all__ = [
    "Tracer",
    "active_tracer",
    "canonical",
    "register_name",
    "trace_scope",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "Histogram",
    "compute_metrics",
    "format_summary",
    "delay_observations",
    "mine_timeliness",
    "format_timeliness",
]
