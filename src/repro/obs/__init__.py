"""repro.obs — the unified telemetry layer.

One subsystem for the three observability signals, correlated on a
single timeline (run / step / rank):

* **events** — structured log records in a thread-safe bounded ring
  (:mod:`repro.obs.events`);
* **spans** — nested, thread-aware tracing exportable to Chrome
  ``chrome://tracing`` JSON (:mod:`repro.obs.spans`);
* **metrics** — counters and gauges with Prometheus-style text
  exposition (:mod:`repro.obs.metrics`); counts and levels only, since
  every duration is a span;
* **reports** — :class:`~repro.obs.report.RunTelemetry`, the per-run
  phase-breakdown table comparable to the paper's Table 4
  (:mod:`repro.obs.report`).

Telemetry is **off by default**: :func:`get_recorder` returns a no-op
recorder whose operations are cached no-ops, so the instrumented hot
paths (simulation step loop, in-situ dispatch, listener polls, I/O)
cost one global read when disabled.  Typical use::

    from repro import obs

    with obs.telemetry(jsonl_path="events.jsonl") as rec:
        result = run_combined_workflow(..., coschedule=True)
    print(result.telemetry.phase_table())       # Table-4-style report
    result.telemetry.write_chrome_trace("trace.json")
"""

from .context import TraceContext, current_trace_context, export_snapshot, merge_snapshot
from .events import Event, EventLog
from .journal import JournalView, RunJournal, RunManifest, read_journal
from .live import follow_journal
from .metrics import PEAK_RSS_GAUGE, Counter, Gauge, MetricsRegistry, sample_memory
from .recorder import (
    SPILL_CAPACITY,
    NullRecorder,
    TelemetryRecorder,
    disable,
    enable,
    get_recorder,
    set_recorder,
    telemetry,
)
from .report import PhaseStat, RunTelemetry, phase_of
from .spans import Span, Tracer, load_chrome_trace, to_chrome_trace, write_chrome_trace
from .timeline import Allocation, MachineTimeline, WorkflowTimeline

__all__ = [
    "Allocation",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "JournalView",
    "MachineTimeline",
    "MetricsRegistry",
    "NullRecorder",
    "PEAK_RSS_GAUGE",
    "PhaseStat",
    "RunJournal",
    "RunManifest",
    "RunTelemetry",
    "SPILL_CAPACITY",
    "Span",
    "TelemetryRecorder",
    "TraceContext",
    "Tracer",
    "WorkflowTimeline",
    "current_trace_context",
    "disable",
    "enable",
    "export_snapshot",
    "follow_journal",
    "get_recorder",
    "load_chrome_trace",
    "merge_snapshot",
    "phase_of",
    "read_journal",
    "sample_memory",
    "set_recorder",
    "telemetry",
    "to_chrome_trace",
    "write_chrome_trace",
]
