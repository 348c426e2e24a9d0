"""End-to-end telemetry: one co-scheduled run, one correlated timeline.

The acceptance property of the observability layer: a single
``run_combined_workflow(coschedule=True)`` produces a timeline spanning
simulation steps, in-situ algorithms, listener polls/submits and
off-line jobs; the Chrome trace validates as JSON; and with telemetry
disabled nothing is recorded (and nothing breaks).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core import run_combined_workflow
from repro.io.genericio import write_genericio
from repro.machines import StagingArea
from repro.sim import SimulationConfig

#: Halo tag guaranteed not to collide with any real mini-sim halo
#: (real tags are particle tags < np_per_dim**3).
FAKE_HALO_TAG = 987_654_321


def fake_level2_blocks(n_particles: int = 1200) -> list[dict[str, np.ndarray]]:
    """A synthetic Level 2 product: one block holding one big fake halo."""
    rng = np.random.default_rng(7)
    pos = rng.normal(10.0, 0.5, (n_particles, 3)).astype(np.float32)
    return [
        {
            "pos": pos,
            "tag": (np.arange(n_particles) + 10**6).astype(np.uint64),
            "halo_tag": np.full(n_particles, FAKE_HALO_TAG, dtype=np.int64),
        }
    ]


def seed_spool_file(spool) -> str:
    """Write the synthetic Level 2 product into ``spool`` as a file.

    The paper's catch-up scenario: a file from an earlier job segment is
    already sitting in the spool when the listener starts, so its
    analysis job runs while the simulation is still stepping.
    """
    path = str(spool / "l2_step0000.gio")
    write_genericio(path, fake_level2_blocks())
    return path


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig(np_per_dim=20, box=36.0, z_initial=30.0, n_steps=16)


@pytest.fixture(scope="module")
def traced_run(small_config, tmp_path_factory):
    """One co-scheduled run under telemetry, with a pre-seeded spool file
    so a listener submit provably overlaps the stepping simulation."""
    spool = tmp_path_factory.mktemp("spool_traced")
    seed_spool_file(spool)
    with obs.telemetry(run_id="cosched-test") as rec:
        result = run_combined_workflow(
            small_config,
            spool,
            threshold=100,  # the largest mini-sim halo (~150) is off-loaded
            min_count=40,
            n_ranks=4,
            coschedule=True,
            listener_poll=0.02,
        )
    assert result.offloaded_halo_tags  # the run's own Level 2 is non-empty
    return result, rec


def test_telemetry_attached_to_result(traced_run):
    result, _ = traced_run
    rt = result.telemetry
    assert rt is not None
    assert rt.run_id == "cosched-test"
    assert rt.wall_seconds > 0


def test_timeline_interleaves_sim_and_listener(traced_run, small_config):
    result, _ = traced_run
    rt = result.telemetry
    steps = rt.spans_named("sim.step")
    submits = rt.spans_named("listener.submit")
    polls = rt.spans_named("listener.poll")
    offline = rt.spans_named("offline.center_job")
    assert len(steps) == small_config.n_steps
    assert len(submits) >= 2  # the seeded file + the run's own Level 2
    assert offline and polls

    sim_t0 = min(s.t0 for s in steps)
    sim_t1 = max(s.t1 for s in steps)
    # listener polls tick while the simulation steps (co-scheduling)
    assert any(p.t0 <= sim_t1 and p.t1 >= sim_t0 for p in polls)
    # the catch-up submit overlaps the stepping simulation
    assert any(s.t0 <= sim_t1 and s.t1 >= sim_t0 for s in submits)
    # every span belongs to the same correlated run
    assert {s.run for s in rt.timeline()} == {"cosched-test"}
    # at least one submit ran on the listener thread, not the sim thread
    # (the final catch-up poll in stop() legitimately runs on the caller)
    sim_threads = {s.thread for s in steps}
    assert any(s.thread not in sim_threads for s in submits)


def test_insitu_spans_nested_in_sim_steps(traced_run):
    result, _ = traced_run
    rt = result.telemetry
    by_id = {s.span_id: s for s in rt.spans}
    insitu = rt.spans_named("insitu.")
    assert {s.name for s in insitu} >= {
        "insitu.execute",
        "insitu.halo_finder",
        "insitu.halo_centers",
        "insitu.level2_writer",
    }
    # insitu.execute sits under a sim.step span; algorithms under it
    for s in insitu:
        if s.name == "insitu.execute":
            assert by_id[s.parent_id].name == "sim.step"
        else:
            assert by_id[s.parent_id].name == "insitu.execute"


def test_offline_jobs_nested_under_listener_submits(traced_run):
    result, _ = traced_run
    rt = result.telemetry
    by_id = {s.span_id: s for s in rt.spans}
    jobs = rt.spans_named("offline.center_job")
    assert jobs
    for job in jobs:
        # the submit retry layer may interpose retry.attempt spans;
        # walk up until the enclosing listener.submit
        names = []
        s = job
        while s.parent_id is not None:
            s = by_id[s.parent_id]
            names.append(s.name)
            if s.name == "listener.submit":
                break
        assert "listener.submit" in names
        assert all(n in ("retry.attempt", "listener.submit") for n in names)


def test_metrics_cover_io_listener_and_sim(traced_run, small_config):
    _, rec = traced_run
    m = rec.metrics
    assert m.counter("sim_steps_total").value == small_config.n_steps
    assert m.counter("io_write_bytes_total").value > 0
    assert m.counter("io_read_bytes_total").value > 0
    assert m.counter("listener_jobs_submitted_total").value >= 2
    assert m.counter("listener_jobs_failed_total").value == 0
    submits = [s for s in rec.tracer.snapshot() if s.name == "listener.submit"]
    assert len(submits) >= 2
    assert m.gauge("listener_backlog").max >= 1
    text = m.render_text()
    assert "io_write_bytes_total" in text and "listener_backlog" in text


def test_chrome_trace_validates_as_json(traced_run, tmp_path):
    result, _ = traced_run
    path = str(tmp_path / "trace.json")
    result.telemetry.write_chrome_trace(path)
    with open(path) as fh:
        trace = json.load(fh)  # must be plain JSON (chrome://tracing)
    names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
    assert {"sim.step", "insitu.halo_finder", "listener.submit"} <= names


def test_events_cover_workflow_lifecycle(traced_run):
    _, rec = traced_run
    names = [e.name for e in rec.events.snapshot()]
    assert "workflow.start" in names
    assert "listener.started" in names and "listener.stopped" in names
    assert "workflow.done" in names
    assert not [e for e in rec.events.snapshot() if e.level == "error"]


def test_phase_table_covers_the_run(traced_run):
    result, _ = traced_run
    table = result.telemetry.phase_table()
    for phase in ("Simulation", "In-situ analysis", "Listener", "Off-line analysis"):
        assert phase in table


def test_jsonl_sink_replays_the_run(small_config, tmp_path):
    jsonl = str(tmp_path / "run.jsonl")
    spool = tmp_path / "spool"
    with obs.telemetry(run_id="jsonl-test", jsonl_path=jsonl):
        run_combined_workflow(
            small_config, spool, threshold=100, min_count=40, n_ranks=4
        )
    view = obs.read_journal(jsonl)
    assert any(e.name == "workflow.done" for e in view.events())
    spans = view.spans()
    assert {"sim.step", "insitu.halo_finder", "offline.center_job"} <= {s.name for s in spans}
    assert all(s.run == "jsonl-test" for s in spans)
    assert [r["seq"] for r in view.records] == list(range(len(view.records)))


def test_disabled_telemetry_records_nothing(small_config, tmp_path):
    result = run_combined_workflow(
        small_config, tmp_path / "spool_off", threshold=250, min_count=40, n_ranks=4
    )
    assert result.telemetry is None
    assert not obs.get_recorder().enabled


def test_intransit_run_carries_telemetry(small_config):
    """The in-transit hand-off through the one driver: a StagingArea in
    the spool's place (pre-seeded, like the catch-up file above), the
    listener thread picking items up, and its off-line jobs parenting
    under ``workflow.sim`` through the listener's thread hop."""
    area = StagingArea()
    area.put("l2_step0000.gio", fake_level2_blocks())
    with obs.telemetry(run_id="intransit-test"):
        result = run_combined_workflow(
            small_config,
            area,
            threshold=100,
            n_ranks=4,
            coschedule=True,
            listener_poll=0.02,
        )
    rt = result.telemetry
    assert rt is not None
    assert rt.spans_named("staging.put") and rt.spans_named("listener.submit")
    jobs = rt.spans_named("offline.center_job")
    assert {s.fields["path"] for s in jobs} == {"l2_step0000.gio", "l2_step0016.gio"}
    by_id = {s.span_id: s for s in rt.spans}
    for job in jobs:
        names, s = [], job
        while s.parent_id is not None:
            s = by_id[s.parent_id]
            names.append(s.name)
        assert "listener.submit" in names and names[-1] == "workflow.sim"
    sim_threads = {s.thread for s in rt.spans_named("sim.step")}
    assert any(job.thread not in sim_threads for job in jobs)
    assert len(area) == 0  # every item left the device with its job
    tags = result.catalog["halo_tag"]
    assert len(tags) == len(np.unique(tags))
