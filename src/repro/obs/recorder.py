"""The telemetry recorder: one object bundling events + spans + metrics.

Instrumented code throughout the repo does::

    from ..obs import get_recorder

    rec = get_recorder()
    with rec.span("insitu.fof", step=step):
        ...
    rec.counter("io_write_bytes_total").inc(nbytes)
    rec.event("workflow.degraded", level="warning", missing_steps=steps)

By default the process-wide recorder is a :class:`NullRecorder` whose
every operation is a cached no-op — instrumentation costs one global
read and one no-op call, so the hot paths do not regress when telemetry
is off (the paper's "minimally intrusive" requirement for in-situ
hooks).  :func:`enable` swaps in a live :class:`TelemetryRecorder`;
:func:`telemetry` scopes one to a ``with`` block.
"""

from __future__ import annotations

import contextlib
import threading
import uuid
from typing import Any, Iterator

from .context import TraceContext
from .events import DEFAULT_CAPACITY, Event, EventLog
from .journal import AppendLog
from .metrics import Counter, Gauge, MetricsRegistry
from .spans import Span, Tracer, write_chrome_trace

__all__ = [
    "SPILL_CAPACITY",
    "TelemetryRecorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "enable",
    "disable",
    "telemetry",
]

#: In-memory ring bound once a journal holds the durable record.
SPILL_CAPACITY = 4096


# -- the no-op fast path -------------------------------------------------------


class _NullSpan:
    """Reusable no-op context manager (also a no-op decorator target)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class _NullMetric:
    """Answers every metric method with a no-op / zero."""

    __slots__ = ()
    value = 0.0
    max = 0.0
    min = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()


class NullRecorder:
    """The default recorder: every operation is a cached no-op."""

    enabled = False
    run_id: str | None = None

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, t0: float, t1: float, **fields: Any) -> None:
        return None

    def event(self, name: str, level: str = "info", **fields: Any) -> None:
        return None

    def trace_context(self) -> TraceContext | None:
        return None

    def bind_thread(self, ctx: TraceContext | None) -> None:
        return None

    def run_scope(self, run_id: str | None):
        return contextlib.nullcontext(self)

    def attach_journal(self, journal: Any, spill_capacity: int = SPILL_CAPACITY) -> None:
        return None

    def detach_journal(self) -> None:
        return None

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def close(self) -> None:
        return None


# -- the live recorder ---------------------------------------------------------


class TelemetryRecorder:
    """Live recorder: event ring + tracer + metrics (+ optional JSONL).

    Parameters
    ----------
    run_id:
        Correlation id stamped on every span and event (auto-generated
        if omitted) — the "run" axis of the timeline.
    jsonl_path:
        If given, every event and finished span is appended to this
        JSONL file as it happens (an
        :class:`~repro.obs.journal.AppendLog`, replayable via
        :func:`repro.obs.journal.read_journal`).
    capacity:
        In-memory ring bound for both events and finished spans.
    """

    enabled = True

    def __init__(
        self,
        run_id: str | None = None,
        jsonl_path: str | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.run_id = run_id or f"run-{uuid.uuid4().hex[:8]}"
        self.events = EventLog(capacity=capacity)
        self.tracer = Tracer(capacity=capacity, run=self.run_id)
        self.metrics = MetricsRegistry()
        self.sink: AppendLog | None = AppendLog.reopen(jsonl_path)[0] if jsonl_path else None
        #: attached :class:`repro.obs.journal.RunJournal` (durable sink)
        self.journal: Any = None
        self.tracer.on_finish = self._persist

    # -- spans ----------------------------------------------------------------

    def span(
        self,
        name: str,
        step: int | None = None,
        rank: int | None = None,
        **fields: Any,
    ):
        return self.tracer.span(name, step=step, rank=rank, **fields)

    def record_span(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        thread: str | None = None,
        step: int | None = None,
        rank: int | None = None,
        parent_id: int | None = None,
        **fields: Any,
    ) -> Span:
        """Record an interval measured elsewhere (e.g. a worker process)."""
        return self.tracer.record_span(
            name, t0, t1, thread=thread, step=step, rank=rank, parent_id=parent_id, **fields
        )

    def _persist(self, item: Span | Event) -> None:
        """Every finished span and event flows to the JSONL sink and the journal."""
        if self.sink is None and self.journal is None:
            return
        record = item.to_dict()
        if self.sink is not None:
            self.sink.append(record)
        if self.journal is not None:
            self.journal.write(record)

    # -- trace propagation -----------------------------------------------------

    def trace_context(self) -> TraceContext:
        """Run id + innermost open span on this thread — the hop payload."""
        current = self.tracer.current()
        return TraceContext(
            run=self.run_id, span_id=current.span_id if current is not None else None
        )

    def bind_thread(self, ctx: TraceContext | None) -> None:
        """Parent this thread's root spans under ``ctx`` (see context.py)."""
        self.tracer.bind(ctx.span_id if ctx is not None else None)

    @contextlib.contextmanager
    def run_scope(self, run_id: str | None) -> "Iterator[TelemetryRecorder]":
        """Stamp everything recorded inside the block with ``run_id``.

        Lets two workflows share one recorder without cross-run
        aggregation bleed: events, spans and failure records emitted in
        the block carry the scoped run id.
        """
        if not run_id or run_id == self.run_id:
            yield self
            return
        prev_run, prev_tracer_run = self.run_id, self.tracer.run
        self.run_id = run_id
        self.tracer.run = run_id
        try:
            yield self
        finally:
            self.run_id, self.tracer.run = prev_run, prev_tracer_run

    # -- journal ---------------------------------------------------------------

    def attach_journal(self, journal: Any, spill_capacity: int = SPILL_CAPACITY) -> None:
        """Stream all subsequent telemetry into ``journal`` (a RunJournal).

        The journal becomes the durable record, so the in-memory rings
        are rebounded to ``spill_capacity`` — long runs stop growing the
        process footprint (the disk holds the full stream).
        """
        self.journal = journal
        if spill_capacity:
            self.events.rebound(spill_capacity)
            self.tracer.rebound(spill_capacity)

    def detach_journal(self) -> None:
        self.journal = None

    # -- events ---------------------------------------------------------------

    def event(
        self,
        name: str,
        level: str = "info",
        step: int | None = None,
        rank: int | None = None,
        **fields: Any,
    ) -> Event:
        ev = self.events.emit(
            name, level=level, run=self.run_id, step=step, rank=rank, **fields
        )
        self._persist(ev)
        return ev

    def ingest_event(self, event: Event) -> Event:
        """Adopt a fully-formed event (merged from another process)."""
        self.events.append(event)
        self._persist(event)
        return event

    # -- metrics --------------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.metrics.gauge(name, help)

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> str:
        """Dump every finished span (+ events) as a Chrome trace file."""
        return write_chrome_trace(
            path,
            self.tracer.snapshot(),
            self.events.snapshot(),
            process_name=self.run_id,
        )

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


# -- the process-wide recorder -------------------------------------------------

_lock = threading.Lock()
_NULL = NullRecorder()
_recorder: NullRecorder | TelemetryRecorder = _NULL


def get_recorder() -> NullRecorder | TelemetryRecorder:
    """The process-wide recorder (a no-op unless :func:`enable` ran)."""
    return _recorder


def set_recorder(
    recorder: NullRecorder | TelemetryRecorder,
) -> NullRecorder | TelemetryRecorder:
    """Install ``recorder`` globally; returns the previous one."""
    global _recorder
    with _lock:
        previous = _recorder
        _recorder = recorder
    return previous


def enable(
    run_id: str | None = None,
    jsonl_path: str | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> TelemetryRecorder:
    """Switch telemetry on: install and return a live recorder."""
    rec = TelemetryRecorder(run_id=run_id, jsonl_path=jsonl_path, capacity=capacity)
    set_recorder(rec)
    return rec


def disable() -> NullRecorder | TelemetryRecorder:
    """Switch telemetry off; returns the recorder that was active."""
    previous = set_recorder(_NULL)
    previous.close()
    return previous


@contextlib.contextmanager
def telemetry(
    run_id: str | None = None,
    jsonl_path: str | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> Iterator[TelemetryRecorder]:
    """Scope a live recorder to a ``with`` block::

        with obs.telemetry() as rec:
            run_combined_workflow(...)
        rec.write_chrome_trace("trace.json")
    """
    previous = get_recorder()
    rec = TelemetryRecorder(run_id=run_id, jsonl_path=jsonl_path, capacity=capacity)
    set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)
        rec.close()
