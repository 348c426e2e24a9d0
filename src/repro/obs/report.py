"""Per-run telemetry aggregation: the Table-4-style phase breakdown.

The paper's evaluation currency is *where time goes*: Table 4 breaks a
combined run into simulation, in-situ analysis, I/O and off-line
analysis phases.  :class:`RunTelemetry` reproduces that view from a
live :class:`~repro.obs.recorder.TelemetryRecorder`: it snapshots the
run's spans, events and metrics, buckets span time into workflow
phases, and renders an aligned text table directly comparable with the
paper's.

Nested spans are handled by *self time*: a phase is charged only for
the time its spans spend outside their traced children, so the table
columns sum to (at most) the traced wall clock instead of
double-counting ``sim.step`` around ``insitu.*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .events import Event
from .spans import Span, write_chrome_trace

__all__ = [
    "PhaseStat",
    "RunTelemetry",
    "PHASE_RULES",
    "FAILURE_COUNTERS",
    "FAILURE_EVENTS",
]

#: Span-name prefix -> phase label (first match wins; order matters).
PHASE_RULES: tuple[tuple[str, str], ...] = (
    ("sim.", "Simulation"),
    ("insitu.", "In-situ analysis"),
    ("offline.", "Off-line analysis"),
    ("listener.", "Listener"),
    ("staging.", "Staging"),
    ("stream.", "Streaming"),
    ("io.", "I/O"),
    ("exec.", "Parallel exec"),
    ("scheduler.", "Scheduler"),
    ("service.", "Service"),
    ("retry.", "Resilience"),
    ("workflow.", "Workflow"),
)

#: Source-independent failure counters: metric name -> report label.
FAILURE_COUNTERS: tuple[tuple[str, str], ...] = (
    ("faults_injected_total", "faults injected"),
    ("retries_total", "retries"),
    ("retry_exhausted_total", "retries exhausted"),
    ("dead_letter_total", "dead-lettered"),
)

#: Their events, for the per-run failure grouping.  (Counters are
#: process-global scalars; events carry the ``run`` axis, so run-grouped
#: failure accounting is reconstructed from them.)
FAILURE_EVENTS: tuple[tuple[str, str], ...] = (
    ("fault.injected", "faults injected"),
    ("retry.backoff", "retries"),
    ("retry.exhausted", "retries exhausted"),
    ("dead_letter", "dead-lettered"),
)

#: The failure ladder's per-source scheme (:meth:`repro.faults.DeadLetterBox.failed`
#: / ``add``): any source's counter or event ``<source><suffix>`` is the
#: row ``"<source> <what>"`` — no source is listed here.
LADDER_SUFFIXES: tuple[tuple[str, str], ...] = (
    ("_jobs_failed_total", "jobs failed"),
    (".job_failed", "jobs failed"),
    ("_requeues_total", "requeues"),
    (".job_requeued", "requeues"),
    ("_dead_letter_total", "dead-lettered"),
)

_FIXED_LABELS = dict(FAILURE_COUNTERS + FAILURE_EVENTS)


def failure_label(name: str) -> str | None:
    """Report label for a failure counter or event name (``None``: not one)."""
    if name in _FIXED_LABELS:
        return _FIXED_LABELS[name]
    for suffix, what in LADDER_SUFFIXES:
        if name.endswith(suffix) and name != suffix:
            return f"{name.removesuffix(suffix)} {what}"
    return None


OTHER_PHASE = "Other"


def phase_of(span_name: str) -> str:
    """Map a span name onto its workflow phase."""
    for prefix, phase in PHASE_RULES:
        if span_name.startswith(prefix):
            return phase
    return OTHER_PHASE


@dataclass
class PhaseStat:
    """Aggregate for one workflow phase."""

    phase: str
    calls: int = 0
    total_seconds: float = 0.0  # inclusive (span durations)
    self_seconds: float = 0.0  # exclusive (minus traced children)
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class RunTelemetry:
    """Immutable snapshot + report renderer for one run's telemetry."""

    def __init__(
        self,
        spans: Iterable[Span],
        events: Iterable[Event] = (),
        metrics: dict[str, float] | None = None,
        run_id: str | None = None,
    ):
        self.spans: list[Span] = [s for s in spans if s.t1 is not None]
        self.events: list[Event] = list(events)
        self.metrics: dict[str, float] = dict(metrics or {})
        self.run_id = run_id

    @classmethod
    def from_recorder(cls, recorder: Any) -> "RunTelemetry | None":
        """Snapshot a recorder (``None`` for the no-op recorder)."""
        if not getattr(recorder, "enabled", False):
            return None
        return cls(
            spans=recorder.tracer.snapshot(),
            events=recorder.events.snapshot(),
            metrics=recorder.metrics.as_dict(),
            run_id=recorder.run_id,
        )

    # -- aggregation ----------------------------------------------------------

    def self_seconds_by_span(self) -> dict[int, float]:
        """Exclusive duration per span id (inclusive minus children).

        Only *same-thread* children are subtracted: a listener span
        parented under the driver's ``workflow.sim`` span runs
        concurrently with it, so deducting it would hollow out the sim
        phase's genuine self time.
        """
        threads = {s.span_id: s.thread for s in self.spans}
        child_time: dict[int, float] = {}
        for s in self.spans:
            p = s.parent_id
            if p is not None and threads.get(p, s.thread) == s.thread:
                child_time[p] = child_time.get(p, 0.0) + s.duration
        return {
            s.span_id: max(0.0, s.duration - child_time.get(s.span_id, 0.0))
            for s in self.spans
        }

    def phase_stats(self) -> dict[str, PhaseStat]:
        """Bucket span time into workflow phases."""
        self_secs = self.self_seconds_by_span()
        stats: dict[str, PhaseStat] = {}
        for s in self.spans:
            phase = phase_of(s.name)
            ps = stats.setdefault(phase, PhaseStat(phase=phase))
            ps.calls += 1
            ps.total_seconds += s.duration
            ps.self_seconds += self_secs[s.span_id]
            ps.max_seconds = max(ps.max_seconds, s.duration)
        return stats

    @property
    def wall_seconds(self) -> float:
        """Traced wall clock: first span start to last span end."""
        if not self.spans:
            return 0.0
        t0 = min(s.t0 for s in self.spans)
        t1 = max(s.t1 for s in self.spans if s.t1 is not None)
        return t1 - t0

    def timeline(self) -> list[Span]:
        """All finished spans in start order (the correlated timeline)."""
        return sorted(self.spans, key=lambda s: s.t0)

    def spans_named(self, prefix: str) -> list[Span]:
        """Finished spans whose name starts with ``prefix``, start order."""
        return [s for s in self.timeline() if s.name.startswith(prefix)]

    # -- rendering ------------------------------------------------------------

    def phase_table(self, title: str | None = None) -> str:
        """Render the per-run phase breakdown (cf. paper Table 4)."""
        stats = self.phase_stats()
        wall = self.wall_seconds
        order = [*(p for _, p in PHASE_RULES), OTHER_PHASE]
        rows: list[list[str]] = []
        for phase in order:
            ps = stats.get(phase)
            if ps is None:
                continue
            pct = 100.0 * ps.self_seconds / wall if wall > 0 else 0.0
            rows.append(
                [
                    phase,
                    str(ps.calls),
                    f"{ps.total_seconds:.3f}",
                    f"{ps.self_seconds:.3f}",
                    f"{ps.mean_seconds * 1e3:.1f}",
                    f"{ps.max_seconds * 1e3:.1f}",
                    f"{pct:5.1f}%",
                ]
            )
        headers = [
            "Phase",
            "Calls",
            "Total (s)",
            "Self (s)",
            "Mean (ms)",
            "Max (ms)",
            "% wall",
        ]
        if title is None:
            run = f" [{self.run_id}]" if self.run_id else ""
            title = f"Per-run phase breakdown{run} — wall {wall:.3f} s"
        return _render_table(headers, rows, title=title)

    def memory_stats(self) -> dict[str, float]:
        """Memory gauges sampled into this run (empty if never sampled).

        ``process_peak_rss_bytes`` appears when anything called
        :func:`repro.obs.sample_memory` during the run (the streaming
        engine samples per chunk).
        """
        peak = self.metrics.get("process_peak_rss_bytes")
        return {"process_peak_rss_bytes": peak} if peak else {}

    def failure_stats(self) -> dict[str, float]:
        """Non-zero failure/resilience counters for this run.

        Empty for a clean run, so reports only grow a failure section
        when there is something to say.
        """
        fixed = [name for name, _ in FAILURE_COUNTERS]
        names = fixed + sorted(n for n in self.metrics if n not in fixed and failure_label(n))
        return {name: self.metrics[name] for name in names if self.metrics.get(name)}

    def runs(self) -> list[str]:
        """Distinct run ids seen across events and spans (sorted)."""
        ids = {e.run for e in self.events if e.run} | {s.run for s in self.spans if s.run}
        return sorted(ids)

    def failure_stats_by_run(self) -> dict[str, dict[str, float]]:
        """Per-run failure accounting, reconstructed from events.

        Counters are process-global, so when two workflows share one
        recorder their failure counts blur together; events carry the
        ``run`` axis, so this view keeps each run's failures separate.
        Event names map to labels via :func:`failure_label`; a
        ``dead_letter`` event also counts under its ``source``, the way
        ``<source>_dead_letter_total`` mirrors ``dead_letter_total``.
        """
        out: dict[str, dict[str, float]] = {}
        for e in self.events:
            label = failure_label(e.name)
            if label is None:
                continue
            per_run = out.setdefault(e.run or "?", {})
            per_run[label] = per_run.get(label, 0.0) + 1.0
            if e.name == "dead_letter":
                by_source = f"{e.fields.get('source', '?')} {label}"
                per_run[by_source] = per_run.get(by_source, 0.0) + 1.0
        return out

    def failure_table(
        self, title: str = "Failure / resilience summary", by_run: bool | None = None
    ) -> str:
        """Render the failure section (empty string for a clean run).

        ``by_run=True`` groups rows by run id (reconstructed from
        events); the default (``None``) does so automatically when the
        snapshot contains more than one run.
        """
        if by_run is None:
            by_run = len(self.runs()) > 1
        if by_run:
            grouped = self.failure_stats_by_run()
            if not grouped:
                return ""
            rows = [
                [run, label, f"{count:g}"]
                for run in sorted(grouped)
                for label, count in sorted(grouped[run].items())
            ]
            return _render_table(["Run", "What", "Count"], rows, title=title)
        stats = self.failure_stats()
        if not stats:
            return ""
        rows2 = [[failure_label(name), f"{value:g}"] for name, value in stats.items()]
        return _render_table(["What", "Count"], rows2, title=title)

    def span_table(self, top: int = 20) -> str:
        """Per-span-name totals, heaviest first (the hot-path view)."""
        totals: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            calls, secs = totals.get(s.name, (0, 0.0))
            totals[s.name] = (calls + 1, secs + s.duration)
        ranked = sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)[:top]
        rows = [
            [name, str(calls), f"{secs:.3f}", f"{secs / calls * 1e3:.2f}"]
            for name, (calls, secs) in ranked
        ]
        return _render_table(
            ["Span", "Calls", "Total (s)", "Mean (ms)"], rows, title="Hottest spans"
        )

    def write_chrome_trace(self, path: str) -> str:
        """Export the snapshot as a Chrome ``chrome://tracing`` file."""
        return write_chrome_trace(
            path, self.spans, self.events, process_name=self.run_id or "repro"
        )

    def summary(self) -> dict[str, Any]:
        """Machine-readable roll-up (what benchmarks persist)."""
        return {
            "run_id": self.run_id,
            "wall_seconds": self.wall_seconds,
            "n_spans": len(self.spans),
            "n_events": len(self.events),
            "phases": {
                p: {
                    "calls": ps.calls,
                    "total_seconds": ps.total_seconds,
                    "self_seconds": ps.self_seconds,
                }
                for p, ps in self.phase_stats().items()
            },
            "metrics": dict(self.metrics),
            "failures": self.failure_stats(),
        }


def _render_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Aligned plain-text table (kept local: obs has no repro deps)."""
    cells = [[str(h) for h in headers], *([str(c) for c in row] for row in rows)]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
