"""repro.obs recorder + RunTelemetry: phase report, no-op overhead."""

from __future__ import annotations

import time

from repro import obs
from repro.obs import NullRecorder, RunTelemetry, TelemetryRecorder
from repro.obs.report import phase_of


def test_phase_classification():
    assert phase_of("sim.step") == "Simulation"
    assert phase_of("insitu.halo_finder") == "In-situ analysis"
    assert phase_of("offline.center_job") == "Off-line analysis"
    assert phase_of("listener.poll") == "Listener"
    assert phase_of("io.write") == "I/O"
    assert phase_of("staging.put") == "Staging"
    assert phase_of("mystery.thing") == "Other"


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_children():
    rec = TelemetryRecorder(run_id="self-time")
    with rec.span("sim.step", step=1):
        _busy(0.01)
        with rec.span("insitu.fof", step=1):
            _busy(0.02)
    rt = RunTelemetry.from_recorder(rec)
    stats = rt.phase_stats()
    sim = stats["Simulation"]
    insitu = stats["In-situ analysis"]
    # inclusive sim time covers the child; self time does not
    assert sim.total_seconds >= 0.03 - 1e-3
    assert sim.self_seconds < sim.total_seconds
    assert abs(sim.self_seconds - 0.01) < 0.02
    assert insitu.total_seconds >= 0.02 - 1e-3
    # the table charges each phase once: self seconds sum <= wall
    assert sum(p.self_seconds for p in stats.values()) <= rt.wall_seconds + 1e-6


def test_phase_table_renders_all_phases():
    rec = TelemetryRecorder(run_id="tbl")
    with rec.span("sim.step", step=1):
        with rec.span("insitu.fof", step=1):
            pass
    with rec.span("listener.poll"):
        with rec.span("offline.center_job"):
            pass
    rt = RunTelemetry.from_recorder(rec)
    table = rt.phase_table()
    for phase in ("Simulation", "In-situ analysis", "Listener", "Off-line analysis"):
        assert phase in table
    assert "% wall" in table and "tbl" in table
    # stable phase ordering follows the workflow, like the paper's Table 4
    assert table.index("Simulation") < table.index("In-situ analysis")
    assert table.index("In-situ analysis") < table.index("Off-line analysis")


def test_span_table_ranks_by_total():
    rec = TelemetryRecorder()
    with rec.span("slow"):
        _busy(0.01)
    with rec.span("fast"):
        pass
    lines = RunTelemetry.from_recorder(rec).span_table().splitlines()
    assert lines[0] == "Hottest spans"
    assert lines.index(next(ln for ln in lines if ln.startswith("slow"))) < lines.index(
        next(ln for ln in lines if ln.startswith("fast"))
    )


def test_from_recorder_returns_none_when_disabled():
    assert RunTelemetry.from_recorder(NullRecorder()) is None


def test_summary_is_machine_readable():
    rec = TelemetryRecorder(run_id="sum")
    with rec.span("sim.step", step=1):
        pass
    rec.event("sim.done", step=1)
    rec.counter("io_write_bytes_total").inc(7)
    s = RunTelemetry.from_recorder(rec).summary()
    assert s["run_id"] == "sum"
    assert s["n_spans"] == 1 and s["n_events"] == 1
    assert s["phases"]["Simulation"]["calls"] == 1
    assert s["metrics"]["io_write_bytes_total"] == 7


def test_global_recorder_swap_and_restore():
    assert not obs.get_recorder().enabled
    with obs.telemetry(run_id="scoped") as rec:
        assert obs.get_recorder() is rec
        with obs.get_recorder().span("sim.step", step=1):
            pass
    assert not obs.get_recorder().enabled
    assert len(rec.tracer) == 1


def test_noop_recorder_overhead_smoke():
    """Disabled telemetry must stay effectively free on hot paths."""
    rec = NullRecorder()
    n = 50_000
    t0 = time.perf_counter()
    for i in range(n):
        with rec.span("sim.step", step=i):
            pass
        rec.counter("c").inc()
        rec.gauge("g").set(i)
        rec.event("e", step=i)
    elapsed = time.perf_counter() - t0
    # ~4 no-op calls per iteration; generous bound to stay CI-safe
    assert elapsed < 2.0, f"no-op recorder too slow: {elapsed:.3f}s for {n} iters"


def test_stream_spans_classify_as_streaming():
    assert phase_of("stream.run") == "Streaming"
    assert phase_of("stream.chunk") == "Streaming"


def test_memory_stats_surfaces_the_sampled_peak():
    from repro.obs import sample_memory

    rec = TelemetryRecorder(run_id="mem")
    with rec.span("stream.run"):
        peak = sample_memory(rec.metrics)
    rt = RunTelemetry.from_recorder(rec)
    assert rt.memory_stats() == {"process_peak_rss_bytes": peak}


def test_memory_stats_empty_when_never_sampled():
    rec = TelemetryRecorder(run_id="mem-none")
    with rec.span("sim.step"):
        pass
    assert RunTelemetry.from_recorder(rec).memory_stats() == {}
