#!/usr/bin/env python
"""Telemetry demo: one co-scheduled run, one correlated timeline.

Runs a small combined in-situ/co-scheduled workflow with the unified
telemetry layer enabled, then:

1. prints the per-run phase-breakdown table (cf. the paper's Table 4);
2. prints the hottest spans and the metrics exposition;
3. writes ``trace.json`` — open it at ``chrome://tracing`` (or
   https://ui.perfetto.dev) to see simulation steps, in-situ algorithms
   and listener-launched analysis jobs on separate thread tracks;
4. writes ``events.jsonl`` — the replayable structured event log.

Usage::

    python examples/telemetry_demo.py
"""

from __future__ import annotations

import tempfile

from repro import obs
from repro.core import run_combined_workflow
from repro.sim import SimulationConfig


def main() -> None:
    config = SimulationConfig(
        np_per_dim=20,  # 20^3 = 8,000 particles
        box=36.0,  # Mpc/h
        z_initial=30.0,
        z_final=0.0,
        n_steps=16,
    )

    spool = tempfile.mkdtemp(prefix="repro_spool_")
    print(f"running {config.n_particles:,} particles with telemetry on ...")

    with obs.telemetry(run_id="demo", jsonl_path="events.jsonl") as rec:
        result = run_combined_workflow(
            config,
            spool,
            threshold=100,  # off-load halos above 100 particles
            min_count=40,
            n_ranks=4,
            coschedule=True,  # listener watches the spool during the run
            listener_poll=0.02,
        )

    rt = result.telemetry
    print(
        f"done: {len(result.catalog)} halo centers "
        f"({len(result.offloaded_halo_tags)} analyzed off-line)\n"
    )

    # 1. the Table-4-style phase breakdown
    print(rt.phase_table())
    print()

    # 2. hot paths + operational metrics
    print(rt.span_table(top=8))
    print()
    print("metrics exposition (excerpt):")
    for line in rec.metrics.render_text().splitlines():
        if line.startswith(("io_", "listener_", "sim_steps")) and "bucket" not in line:
            print(f"  {line}")
    print()

    # 3. the Chrome trace for chrome://tracing
    path = rt.write_chrome_trace("trace.json")
    print(f"wrote {path} — load it in chrome://tracing or ui.perfetto.dev")

    # 4. the structured event log
    view = obs.read_journal("events.jsonl")
    events, spans = view.events(), view.spans()
    print(f"wrote events.jsonl — {len(events)} events, {len(spans)} spans replayable")
    errors = [e for e in events if e.level == "error"]
    print(f"errors during the run: {len(errors)}")


if __name__ == "__main__":
    main()
