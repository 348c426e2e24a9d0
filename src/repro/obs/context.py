"""Trace-context propagation across threads and processes.

One workflow run spans many execution contexts: the driver thread, the
co-scheduled listener thread (on either Level 2 hand-off), and the
``repro.exec`` worker *processes*.  For the journal and Chrome trace to
show a single causally-linked tree, every hop must carry two facts:

* which **run** it belongs to (``run_id``), and
* which **span** caused it (``span_id`` of the driver-side parent).

That pair is :class:`TraceContext` — deliberately tiny, immutable and
dict-round-trippable so it can ride a ``multiprocessing`` queue, a
thread closure, or a journal record unchanged.  The contract:

* **thread hop** — capture ``ctx = rec.trace_context()`` on the parent
  thread *inside* the causal span, then ``rec.bind_thread(ctx)`` as the
  first statement of the child thread's loop.  Root spans opened by
  that thread are parented under ``ctx.span_id``.
* **process hop** — pass ``ctx.to_dict()`` in the worker's argument
  tuple.  The worker installs its own local
  :class:`~repro.obs.recorder.TelemetryRecorder` with the shipped
  ``run_id``, records spans/events/metrics locally, and ships one
  :func:`export_snapshot` payload back over the result queue.  The
  parent calls :func:`merge_snapshot`, which remaps worker-local span
  ids onto the parent's id space (collision-free), re-parents worker
  root spans under the causal driver span, and folds worker metrics
  into the parent registry.

``time.perf_counter`` on Linux is ``CLOCK_MONOTONIC`` — system-wide,
not per-process — so worker timestamps land directly on the parent's
timeline with no clock translation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .events import Event
from .spans import Span, next_span_id

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from .recorder import TelemetryRecorder

__all__ = ["TraceContext", "current_trace_context", "export_snapshot", "merge_snapshot"]


@dataclass(frozen=True)
class TraceContext:
    """The two facts a hop must carry: run identity + causal parent."""

    run: str
    span_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"run": self.run, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, d: dict[str, Any] | None) -> "TraceContext | None":
        if d is None:
            return None
        return cls(run=d["run"], span_id=d.get("span_id"))


def current_trace_context() -> TraceContext | None:
    """The process-wide recorder's current trace context (None when off)."""
    from .recorder import get_recorder  # local import: recorder imports us

    return get_recorder().trace_context()


def export_snapshot(rec: "TelemetryRecorder") -> dict[str, Any] | None:
    """Ship-ready snapshot of a (worker-local) recorder's telemetry.

    Everything is plain dicts/lists — picklable for a
    ``multiprocessing`` queue and JSON-serializable for a journal.
    """
    if not getattr(rec, "enabled", False):
        return None
    return {
        "run": rec.run_id,
        "events": [e.to_dict() for e in rec.events.snapshot()],
        "spans": [s.to_dict() for s in rec.tracer.snapshot()],
        "metrics": rec.metrics.export_state(),
    }


def merge_snapshot(
    rec: "TelemetryRecorder",
    snapshot: dict[str, Any] | None,
    parent_span_id: int | None = None,
    thread: str | None = None,
) -> tuple[int, int]:
    """Fold a shipped :func:`export_snapshot` into the parent recorder.

    Worker-local span ids are remapped onto the parent's id space (in
    ascending original order, so internal parent→child links survive);
    spans that were roots in the worker are re-parented under
    ``parent_span_id`` — the causal driver span.  ``thread`` relabels
    the track (e.g. ``exec-worker-3``) when given.  Events and spans are
    ingested through the recorder so journal/sink hooks fire; metrics
    merge kind-appropriately.  Returns ``(n_events, n_spans)``.
    """
    if snapshot is None:
        return (0, 0)

    span_dicts = sorted(snapshot.get("spans", ()), key=lambda d: d.get("span_id", 0))
    id_map: dict[int, int] = {}
    for d in span_dicts:
        old = int(d.get("span_id", 0))
        id_map[old] = next_span_id()

    n_spans = 0
    for d in span_dicts:
        span = Span.from_dict(d)
        span.span_id = id_map[span.span_id]
        if span.parent_id is not None and span.parent_id in id_map:
            span.parent_id = id_map[span.parent_id]
            span.depth += 1 if parent_span_id is not None else 0
        else:  # worker root: hang it under the causal driver span
            span.parent_id = parent_span_id
            span.depth = 1 if parent_span_id is not None else 0
        span.run = rec.run_id
        if thread is not None:
            span.thread = thread
        rec.tracer.ingest(span)
        n_spans += 1

    n_events = 0
    for d in snapshot.get("events", ()):
        rec.ingest_event(replace(Event.from_dict(d), run=rec.run_id))
        n_events += 1

    rec.metrics.absorb_state(snapshot.get("metrics", {}))
    return (n_events, n_spans)
