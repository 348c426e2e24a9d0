"""Span-based tracing with Chrome ``chrome://tracing`` export.

A *span* is a named interval of wall-clock time with nesting (a
``sim.step`` span contains the ``insitu.halo_finder`` span which
contains ``io.write`` spans, ...).  The :class:`Tracer` keeps a
per-thread span stack so concurrently-running components — the
simulation loop and a co-scheduled listener thread — each build their
own correct nesting while landing in one shared, lock-protected record
of finished spans.

Export targets the Chrome trace-event format (``chrome://tracing`` /
Perfetto): one ``"ph": "X"`` complete event per span, ``tid`` = the
producing thread, so the combined-workflow timeline renders exactly
like the paper's Figure 3 schedule diagrams — simulation steps on one
track, listener-launched analysis jobs on another.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .events import _json_default

__all__ = [
    "Span",
    "Tracer",
    "next_span_id",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
]

#: Default bound on retained finished spans.
DEFAULT_CAPACITY = 65_536

_span_ids = itertools.count(1)


def next_span_id() -> int:
    """Allocate a fresh process-unique span id.

    Used when ingesting spans measured in another process (exec
    workers): their local ids are remapped onto this counter so they
    can never collide with spans created here.
    """
    return next(_span_ids)


@dataclass
class Span:
    """One named, possibly-nested interval.

    ``t0``/``t1`` are monotonic (:func:`time.perf_counter`) seconds;
    ``wall0`` anchors the span to the epoch clock.  Correlation fields
    mirror :class:`repro.obs.events.Event`.
    """

    name: str
    t0: float = 0.0
    t1: float | None = None
    wall0: float = 0.0
    run: str | None = None
    step: int | None = None
    rank: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)
    span_id: int = 0
    parent_id: int | None = None
    depth: int = 0
    thread: str = ""
    error: str | None = None

    @property
    def duration(self) -> float:
        """Span length in seconds (0 while still open)."""
        if self.t1 is None:
            return 0.0
        return self.t1 - self.t0

    @property
    def open(self) -> bool:
        return self.t1 is None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "wall0": self.wall0,
            "span_id": self.span_id,
            "depth": self.depth,
            "thread": self.thread,
        }
        if self.parent_id is not None:
            d["parent_id"] = self.parent_id
        if self.run is not None:
            d["run"] = self.run
        if self.step is not None:
            d["step"] = self.step
        if self.rank is not None:
            d["rank"] = self.rank
        if self.fields:
            d["fields"] = self.fields
        if self.error is not None:
            d["error"] = self.error
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` record (journal replay)."""
        return cls(
            name=d["name"],
            t0=float(d.get("t0", 0.0)),
            t1=None if d.get("t1") is None else float(d["t1"]),
            wall0=float(d.get("wall0", 0.0)),
            run=d.get("run"),
            step=d.get("step"),
            rank=d.get("rank"),
            fields=dict(d.get("fields", {})),
            span_id=int(d.get("span_id", 0)),
            parent_id=d.get("parent_id"),
            depth=int(d.get("depth", 0)),
            thread=d.get("thread", ""),
            error=d.get("error"),
        )


class _SpanHandle:
    """Context manager binding one :class:`Span` to its tracer."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        self.span.t0 = time.perf_counter()
        self.span.wall0 = time.time()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.t1 = time.perf_counter()
        if exc is not None:
            self.span.error = f"{exc_type.__name__}: {exc}"
        self.tracer._pop(self.span)


class Tracer:
    """Thread-safe span factory with per-thread nesting stacks."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, run: str | None = None):
        self.run = run
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=capacity)
        self.finished_total = 0
        #: optional callback invoked with each finished span (JSONL sink hook)
        self.on_finish: Callable[[Span], None] | None = None

    # -- public API -----------------------------------------------------------

    def span(
        self,
        name: str,
        step: int | None = None,
        rank: int | None = None,
        **fields: Any,
    ) -> _SpanHandle:
        """Open a span as a context manager::

            with tracer.span("fof", step=12):
                ...
        """
        s = Span(
            name=name,
            run=self.run,
            step=step,
            rank=rank,
            fields=fields,
            span_id=next(_span_ids),
            thread=threading.current_thread().name,
        )
        return _SpanHandle(self, s)

    def traced(self, name: str | None = None, **fields: Any):
        """Decorator form: trace every call of the wrapped function."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, **fields):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

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
        """Record an already-finished interval as a span.

        For intervals measured elsewhere — e.g. the execution engine's
        worker processes, which report :func:`time.perf_counter` pairs
        back to the parent.  ``thread`` overrides the track name so the
        span renders on its own Chrome-trace lane (``exec-worker-3``)
        instead of the recording thread's; ``parent_id`` links it under
        an existing span (causal parent across the process boundary).
        """
        s = Span(
            name=name,
            t0=float(t0),
            t1=float(t1),
            wall0=time.time() - (time.perf_counter() - float(t0)),
            run=self.run,
            step=step,
            rank=rank,
            fields=fields,
            span_id=next(_span_ids),
            parent_id=parent_id,
            thread=thread or threading.current_thread().name,
        )
        with self._lock:
            self._finished.append(s)
            self.finished_total += 1
        if self.on_finish is not None:
            self.on_finish(s)
        return s

    def ingest(self, span: Span) -> Span:
        """Adopt a fully-formed finished span (ids already assigned).

        Used when merging telemetry shipped from another process: the
        caller has already remapped ids via :func:`next_span_id`, so the
        span only needs to land in the finished record (and fire the
        ``on_finish`` hook — journal/sink — like any local span).
        """
        with self._lock:
            self._finished.append(span)
            self.finished_total += 1
        if self.on_finish is not None:
            self.on_finish(span)
        return span

    def bind(self, parent_id: int | None) -> None:
        """Set *this thread's* base parent for root spans.

        A worker thread started inside a driver span calls
        ``bind(ctx.span_id)`` so the spans it opens at stack depth 0 are
        causally parented under the driver's span instead of floating as
        roots — the cross-thread half of trace propagation.
        """
        self._local.base_parent = parent_id

    def rebound(self, capacity: int) -> None:
        """Shrink/grow the finished-span ring (keeps the newest spans).

        Called when a journal is attached: the journal holds the full
        record, so memory only needs a small tail for live reports.
        """
        with self._lock:
            self._finished = deque(self._finished, maxlen=max(1, int(capacity)))

    def snapshot(self) -> list[Span]:
        """Finished spans, ordered by completion time."""
        with self._lock:
            return list(self._finished)

    def current(self) -> Span | None:
        """The innermost open span on *this* thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    # -- stack plumbing -------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack: list[Span] = getattr(self._local, "stack", None) or []
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = stack[-1].depth + 1
        else:
            base = getattr(self._local, "base_parent", None)
            if base is not None:  # thread bound under a driver span
                span.parent_id = base
                span.depth = 1
        stack.append(span)
        self._local.stack = stack

    def _pop(self, span: Span) -> None:
        stack: list[Span] = getattr(self._local, "stack", None) or []
        if stack and stack[-1] is span:
            stack.pop()
        else:  # mismatched exit (generator abandoned mid-span): resync
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(span)
            self.finished_total += 1
        if self.on_finish is not None:
            self.on_finish(span)


# -- Chrome trace-event export ------------------------------------------------


def to_chrome_trace(
    spans: Iterable[Span],
    events: Iterable[Any] = (),
    process_name: str = "repro",
) -> dict[str, Any]:
    """Render spans (+ optional instant events) as a Chrome trace object.

    The result is loadable by ``chrome://tracing`` and Perfetto: spans
    become ``"ph": "X"`` complete events (timestamps in microseconds),
    instant events become ``"ph": "i"``.  Thread names become ``tid``
    labels so the sim loop and listener render as separate tracks.
    """
    trace_events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}

    def tid_of(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[thread],
                    "args": {"name": thread},
                }
            )
        return tids[thread]

    trace_events.append(
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process_name}}
    )
    for s in spans:
        if s.t1 is None:
            continue
        args: dict[str, Any] = dict(s.fields)
        if s.step is not None:
            args["step"] = s.step
        if s.rank is not None:
            args["rank"] = s.rank
        if s.error is not None:
            args["error"] = s.error
        trace_events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": s.t0 * 1e6,
                "dur": (s.t1 - s.t0) * 1e6,
                "pid": 1,
                "tid": tid_of(s.thread or "main"),
                "args": args,
            }
        )
    for e in events:
        trace_events.append(
            {
                "name": e.name,
                "cat": "event",
                "ph": "i",
                "s": "g",
                "ts": e.t * 1e6,
                "pid": 1,
                "tid": 0,
                "args": dict(e.fields, level=e.level),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    spans: Iterable[Span],
    events: Iterable[Any] = (),
    process_name: str = "repro",
) -> str:
    """Write a Chrome trace JSON file; returns the path."""
    trace = to_chrome_trace(spans, events, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, default=_json_default)
    return path


def load_chrome_trace(path: str) -> list[dict[str, Any]]:
    """Load a Chrome trace file back into its ``traceEvents`` list."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError(f"{path}: not a Chrome trace object")
    return trace["traceEvents"]
