"""``python -m repro.obs`` — the campaign console over run journals.

Every subcommand works on the durable run directories that
``run_combined_workflow(..., journal_dir=...)`` produces (see
:mod:`repro.obs.journal`), so the analysis survives — and can run
during, or long after — the producing process:

* ``report``   — the Table-4 phase breakdown + failure summary
* ``timeline`` — per-node utilization Gantt (Table-3 view) and
  workflow lanes, as ASCII or JSON
* ``tail``     — print a journal's records; ``--follow`` streams a
  live run until its ``run.end``
* ``trace``    — export one causally-linked Chrome trace
  (``chrome://tracing`` / Perfetto)
* ``diff``     — compare two runs: counter drift, and per-phase span
  time regressions (optionally against a ``BENCH_*.json`` baseline)

``--canonical`` (on ``report``/``timeline``/``trace``) projects away
everything timing- and scheduling-dependent (wall clocks, span ids,
worker assignment) so two runs of the same seeded configuration render
**byte-identical** output — the repo's determinism harness diffs these
projections directly.

This module is the CLI surface, so it prints; library code must not
(rule RPR010 routes library output through ``repro.obs`` events).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from typing import Any

from .events import _json_default
from .journal import JournalView, read_journal
from .live import follow_journal, format_record
from .report import RunTelemetry, phase_of
from .spans import Span
from .timeline import MachineTimeline, WorkflowTimeline

__all__ = ["main"]

#: Field keys whose values depend on scheduling races (which worker ran
#: an item, how often a poll loop spun) — stripped by ``--canonical``.
RACY_FIELD_KEYS = frozenset(
    {"stolen", "steals", "imbalance", "busy_fraction", "overhead", "queue_wait"}
)

#: Counters whose totals depend on scheduling races — excluded from the
#: canonical projection (steals vary with worker timing; pool reuse
#: depends on whether an earlier run in the same process left a warm
#: worker pool behind).
RACY_COUNTERS = frozenset({"exec_steals_total", "exec_pool_reuse_total"})

#: Metrics measuring the host rather than the science — process RSS
#: (allocator/environment dependent) — excluded from ``diff``.
HOST_METRICS = frozenset({"process_peak_rss_bytes"})

#: Span/event names whose *count* depends on thread timing (poll loops,
#: a pooled batch finding the shared pool busy).
RACY_NAMES = frozenset(
    {"listener.poll", "listener.started", "listener.stopped", "exec.pool_wait"}
)

#: Phases made of poll-loop spans: their calls and time are thread-timing races.
RACY_PHASES = frozenset({"Listener"})

#: Field keys holding filesystem paths — environment, not science.  The
#: canonical projection keeps only the basename (file names like
#: ``l2_step0016.gio`` are deterministic; the directories they sit in
#: are whatever the host handed out).
PATH_FIELD_KEYS = frozenset({"path", "dir", "directory", "spool", "file"})

_WORKER_LANE = re.compile(r"^(exec-worker|stream-link)-\d+$")


def _canonical_lane(thread: str) -> str:
    """Collapse per-worker lanes: worker→item assignment is a race."""
    pooled = _WORKER_LANE.match(thread or "")
    if pooled:
        return pooled.group(1)
    return thread or "main"


def _canonical_fields(fields: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k in sorted(fields):
        if k in RACY_FIELD_KEYS:
            continue
        v = fields[k]
        if k in PATH_FIELD_KEYS and isinstance(v, str):
            v = os.path.basename(v.rstrip("/")) or v
        out[k] = v
    return out


def canonical_spans(spans: list[Span]) -> list[dict[str, Any]]:
    """Timing-free span projection: name/step/lane/parent-name/args.

    Span ids are replaced by the *name* of the parent span, which keeps
    the causal structure visible (``exec.item`` under ``exec.run``)
    while erasing the run-dependent id numbering.
    """
    names_by_id = {s.span_id: s.name for s in spans}
    out = []
    for s in spans:
        if s.name in RACY_NAMES:
            continue
        out.append(
            {
                "name": s.name,
                "step": s.step,
                "rank": s.rank,
                "lane": _canonical_lane(s.thread),
                "parent": names_by_id.get(s.parent_id) if s.parent_id else None,
                "error": s.error is not None,
                "args": _canonical_fields(s.fields),
            }
        )
    out.sort(key=lambda d: json.dumps(d, sort_keys=True, default=_json_default))
    return out


def _is_count(name: str) -> bool:
    return name.endswith("_total")


def canonical_counters(metrics: dict[str, float]) -> dict[str, float]:
    """Counters only (``*_total``), races dropped."""
    return {
        name: value
        for name, value in sorted(metrics.items())
        if _is_count(name) and name not in RACY_COUNTERS
    }


# -- report --------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    view = read_journal(args.journal)
    rt = RunTelemetry(
        spans=view.spans(),
        events=view.events(),
        metrics=view.last_metrics(),
        run_id=view.run_id,
    )
    if args.canonical:
        calls = Counter(phase_of(s.name) for s in rt.spans if s.name not in RACY_NAMES)
        payload = {
            "run": view.run_id,
            "config_hash": view.manifest.config_hash if view.manifest else None,
            "complete": view.complete,
            "phases": {p: calls[p] for p in sorted(calls) if p not in RACY_PHASES},
            "counters": canonical_counters(rt.metrics),
            "failures": [
                {k: v for k, v in sorted(f.items()) if k not in ("seq", "kind")}
                for f in view.failures()
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
        return 0
    if view.manifest is not None:
        m = view.manifest
        print(
            f"run {m.run_id}  config {m.config_hash[:12]}  "
            f"code {m.code_version}  seeds {m.seeds}"
        )
        if m.fault_plan:
            print(f"fault plan: {len(m.fault_plan.get('faults', m.fault_plan))} entries")
    if not view.complete:
        print("NOTE: journal has no run.end record (live or crashed run)")
    if view.truncated:
        print("NOTE: torn final line recovered (crash mid-write)")
    if view.corrupt:
        print(f"NOTE: {view.corrupt} unparseable interior line(s) skipped")
    print()
    print(rt.phase_table())
    memory = rt.memory_stats()
    if memory:
        mib = memory["process_peak_rss_bytes"] / (1024.0 * 1024.0)
        print()
        print(f"peak RSS: {mib:.1f} MiB (process_peak_rss_bytes)")
    failures = rt.failure_table()
    if failures:
        print()
        print(failures)
    if view.failures():
        print()
        print("Terminal failures (journaled):")
        for f in view.failures():
            print(
                f"  stage={f.get('stage', '?')} key={f.get('key', '?')} "
                f"attempts={f.get('attempts', '?')}: {f.get('reason', '?')}"
            )
    print()
    print(rt.span_table(top=args.top))
    return 0


# -- timeline ------------------------------------------------------------------


def _machine_timeline(view: JournalView) -> MachineTimeline | None:
    events = view.events()
    if any(e.name == "scheduler.job_start" for e in events):
        return MachineTimeline.from_events(events)
    return None


def _cmd_timeline(args: argparse.Namespace) -> int:
    view = read_journal(args.journal)
    machine = _machine_timeline(view)
    wf = WorkflowTimeline(spans=view.spans(), metrics=view.last_metrics())
    if args.canonical:
        lanes: dict[str, int] = {}
        for lane_name, lane_spans in wf.lanes().items():
            lane = _canonical_lane(lane_name)
            lanes[lane] = lanes.get(lane, 0) + sum(
                1 for s in lane_spans if s.name not in RACY_NAMES
            )
        payload: dict[str, Any] = {"run": view.run_id, "lanes": lanes}
        # the machine Gantt runs on the *sim* clock — deterministic, so
        # it survives canonicalization intact
        if machine is not None:
            payload["machine"] = machine.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
        return 0
    if args.json:
        payload = {"run": view.run_id, "workflow": wf.summary()}
        if machine is not None:
            payload["machine"] = machine.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
        return 0
    if machine is not None:
        print(machine.gantt(width=args.width))
        print()
    print(wf.render(width=args.width))
    s = wf.summary()
    print(
        f"sim {s['sim_seconds']:.3f} s, analysis {s['analysis_seconds']:.3f} s, "
        f"overlap {s['overlap_fraction'] * 100.0:.1f}% "
        f"(solver {s['solver_overlap_fraction'] * 100.0:.1f}%), "
        f"staging {s['staging_throughput_bytes_per_s'] / 1e6:.2f} MB/s"
    )
    return 0


# -- tail ----------------------------------------------------------------------


def _cmd_tail(args: argparse.Namespace) -> int:
    if args.follow:
        try:
            for record in follow_journal(
                args.journal,
                poll_interval=args.interval,
                max_seconds=args.max_seconds,
            ):
                print(format_record(record), flush=True)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 130
        return 0
    view = read_journal(args.journal)
    records = view.records[-args.last :] if args.last else view.records
    for record in records:
        print(format_record(record))
    if view.truncated:
        print("(torn final line recovered)", file=sys.stderr)
    return 0


# -- trace ---------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    view = read_journal(args.journal)
    if args.canonical:
        # deterministic projection: canonical spans become unit-duration
        # complete events at their sort index — structure without clocks
        spans = canonical_spans(view.spans())
        lanes: dict[str, int] = {}
        trace_events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": view.run_id or "repro"},
            }
        ]
        for lane in sorted({d["lane"] for d in spans}):
            lanes[lane] = len(lanes) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": lanes[lane],
                    "args": {"name": lane},
                }
            )
        for i, d in enumerate(spans):
            trace_events.append(
                {
                    "name": d["name"],
                    "cat": d["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": i * 2,
                    "dur": 1,
                    "pid": 1,
                    "tid": lanes[d["lane"]],
                    "args": {"parent": d["parent"], **d["args"]},
                }
            )
        trace = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, sort_keys=True, default=_json_default)
        print(f"wrote {args.output} ({len(spans)} spans, canonical)")
        return 0
    rt = RunTelemetry(
        spans=view.spans(), events=view.events(), run_id=view.run_id
    )
    rt.write_chrome_trace(args.output)
    print(f"wrote {args.output} ({len(rt.spans)} spans, {len(rt.events)} events)")
    return 0


# -- diff ----------------------------------------------------------------------


def _phase_seconds(view: JournalView) -> dict[str, float]:
    """Self seconds per workflow phase — the run's timings, from its spans."""
    stats = RunTelemetry(spans=view.spans()).phase_stats()
    return {p: ps.self_seconds for p, ps in stats.items() if p not in RACY_PHASES}


def _cmd_diff(args: argparse.Namespace) -> int:
    a = read_journal(args.journal_a)
    b = read_journal(args.journal_b)
    ma, mb = a.last_metrics(), b.last_metrics()
    findings: list[str] = []

    if a.manifest and b.manifest and a.manifest.config_hash != b.manifest.config_hash:
        findings.append(
            f"config drift: {a.manifest.config_hash[:12]} vs {b.manifest.config_hash[:12]}"
        )
    for name in sorted(set(ma) | set(mb)):
        if name in RACY_COUNTERS or name in HOST_METRICS:
            continue
        va, vb = ma.get(name), mb.get(name)
        if va is None or vb is None:
            findings.append(f"metric {name}: only in {'B' if va is None else 'A'}")
            continue
        if _is_count(name):
            if va != vb:
                findings.append(f"count drift {name}: {va:g} -> {vb:g}")
        elif va > 0 and (vb - va) / va > args.tolerance:
            findings.append(f"gauge rise {name}: {va:g} -> {vb:g}")
    pa, pb = _phase_seconds(a), _phase_seconds(b)
    for phase in sorted(set(pa) & set(pb)):
        va, vb = pa[phase], pb[phase]
        if va > 0 and (vb - va) / va > args.tolerance:
            findings.append(
                f"timing regression {phase}: {va:.3f} s -> {vb:.3f} s "
                f"(+{(vb - va) / va * 100.0:.1f}%)"
            )
    if args.bench:
        with open(args.bench, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        for name, base in sorted(baseline.items()):
            if not isinstance(base, (int, float)) or name not in mb:
                continue
            if _is_count(name):
                if name not in RACY_COUNTERS and mb[name] != base:
                    findings.append(
                        f"count drift vs baseline {name}: {base:g} -> {mb[name]:g}"
                    )
            elif base > 0 and (mb[name] - base) / base > args.tolerance:
                rel = (mb[name] - base) / base
                findings.append(
                    f"regression vs baseline {name}: {base:g} -> {mb[name]:g} "
                    f"(+{rel * 100.0:.1f}%)"
                )

    print(f"A: {a.run_id} ({len(a.records)} records)")
    print(f"B: {b.run_id} ({len(b.records)} records)")
    if not findings:
        print("no drift or regressions found")
        return 0
    for f in findings:
        print(f"  {f}")
    print(f"{len(findings)} finding(s)")
    return 1


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Campaign console over durable run journals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="Table-4 phase report from a journal")
    p.add_argument("journal", help="journal file, run directory, or journal root")
    p.add_argument("--top", type=int, default=20, help="rows in the hottest-span table")
    p.add_argument(
        "--canonical",
        action="store_true",
        help="timing-free JSON projection (byte-identical for seeded reruns)",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("timeline", help="utilization Gantt + workflow lanes")
    p.add_argument("journal")
    p.add_argument("--width", type=int, default=72, help="chart width in columns")
    p.add_argument("--json", action="store_true", help="JSON instead of ASCII")
    p.add_argument("--canonical", action="store_true", help="timing-free JSON projection")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("tail", help="print journal records; --follow streams a live run")
    p.add_argument("journal")
    p.add_argument("--follow", action="store_true", help="keep following until run.end")
    p.add_argument("--interval", type=float, default=0.2, help="poll interval (s)")
    p.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop following after this many seconds",
    )
    p.add_argument("--last", type=int, default=0, help="only the last N records")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("trace", help="export a Chrome/Perfetto trace")
    p.add_argument("journal")
    p.add_argument("-o", "--output", required=True, help="output trace path")
    p.add_argument("--canonical", action="store_true", help="timing-free projection")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("diff", help="compare two runs; flag drift and regressions")
    p.add_argument("journal_a")
    p.add_argument("journal_b")
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative timing-regression threshold (default 10%%)",
    )
    p.add_argument("--bench", help="BENCH_*.json baseline to compare run B against")
    p.set_defaults(func=_cmd_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
