"""Cross-process / cross-thread trace propagation.

Contracts of :mod:`repro.obs.context`:

* ``TraceContext`` round-trips through a dict (the hop payload);
* a thread that binds a captured context parents its root spans under
  the capturing span (listener / in-transit consumer pattern);
* a worker recorder's snapshot merges into the parent with remapped
  span ids, re-parented roots, relabelled thread, and summed counters
  (the ``repro.exec`` subprocess pattern);
* the multi-process exec engine ships real worker telemetry home: its
  per-item spans parent under the driver's open ``exec.run`` span.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.context import TraceContext, export_snapshot, merge_snapshot
from repro.exec import ExecutionEngine, parallel_halo_centers
from repro.faults import FaultPlan, FaultSpec, fault_plan, set_fault_plan


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def test_trace_context_roundtrip():
    ctx = TraceContext(run="r1", span_id=42)
    assert TraceContext.from_dict(ctx.to_dict()) == ctx
    assert TraceContext.from_dict({"run": "r2"}) == TraceContext(run="r2", span_id=None)


def test_current_trace_context_tracks_open_span():
    rec = obs.TelemetryRecorder(run_id="r1")
    assert rec.trace_context() == TraceContext(run="r1", span_id=None)
    with rec.span("outer") as s:
        assert rec.trace_context() == TraceContext(run="r1", span_id=s.span_id)
    assert rec.trace_context().span_id is None


def test_bound_thread_parents_under_capturing_span():
    """The listener pattern: capture on the driver thread, bind in the
    worker thread, and the worker's root spans join the driver's tree."""
    rec = obs.TelemetryRecorder(run_id="r1")
    done = threading.Event()

    def worker(ctx: TraceContext) -> None:
        rec.bind_thread(ctx)
        with rec.span("thread.child"):
            pass
        done.set()

    with rec.span("driver.parent") as parent:
        t = threading.Thread(target=worker, args=(rec.trace_context(),))
        t.start()
        t.join()
    assert done.is_set()
    spans = {s.name: s for s in rec.tracer.snapshot()}
    assert spans["thread.child"].parent_id == parent.span_id
    assert spans["thread.child"].depth == 1


def test_merge_snapshot_remaps_and_reparents():
    worker = obs.TelemetryRecorder(run_id="r1")
    with worker.span("w.root"):
        with worker.span("w.leaf"):
            worker.event("w.ev", k=1)
    worker.counter("widgets_total").inc(2)
    snap = export_snapshot(worker)

    parent = obs.TelemetryRecorder(run_id="r1")
    parent.counter("widgets_total").inc(1)
    with parent.span("p.outer") as outer:
        pass
    n_events, n_spans = merge_snapshot(
        parent, snap, parent_span_id=outer.span_id, thread="exec-worker-0"
    )
    assert (n_events, n_spans) == (1, 2)
    spans = {s.name: s for s in parent.tracer.snapshot()}
    # ids remapped into the parent's space, internal links preserved
    assert spans["w.leaf"].parent_id == spans["w.root"].span_id
    assert spans["w.root"].parent_id == outer.span_id
    assert all(spans[n].thread == "exec-worker-0" for n in ("w.root", "w.leaf"))
    assert all(spans[n].run == "r1" for n in ("w.root", "w.leaf"))
    # counters add across the hop
    assert parent.metrics.as_dict()["widgets_total"] == 3.0
    evs = [e for e in rec_events(parent) if e.name == "w.ev"]
    assert len(evs) == 1 and evs[0].run == "r1"


def rec_events(rec):
    return list(rec.events.snapshot())


def test_export_snapshot_none_when_disabled():
    assert export_snapshot(obs.NullRecorder()) is None


def _tiny_batch(rng, n_halos=6, size=80):
    pos_list, labels_list = [], []
    for i in range(n_halos):
        c = rng.uniform(10, 90, 3)
        pos_list.append(c + rng.normal(0, 1.0, (size, 3)))
        labels_list.append(np.full(size, i, dtype=np.int64))
    pos = np.concatenate(pos_list)
    labels = np.concatenate(labels_list)
    return pos, np.arange(len(pos), dtype=np.int64), labels


def test_exec_worker_spans_parent_under_exec_run(rng):
    """The acceptance link: every ``exec.item`` span hangs under the
    driver's ``exec.run`` span, and worker subprocess telemetry (fault
    events fired inside workers) lands in the driver's recorder."""
    pos, tags, labels = _tiny_batch(rng)
    with obs.telemetry(run_id="r-exec") as rec:
        with fault_plan(
            FaultPlan(seed=3, sites={"exec.item": FaultSpec(fail_first=1, keys=("0",))})
        ):
            engine = ExecutionEngine(workers=2, item_retries=2)
            parallel_halo_centers(pos, tags, labels, workers=2, engine=engine)
    spans = rec.tracer.snapshot()
    run_spans = [s for s in spans if s.name == "exec.run"]
    items = [s for s in spans if s.name == "exec.item"]
    assert len(run_spans) == 1 and items
    assert all(s.parent_id == run_spans[0].span_id for s in items)
    assert all(s.run == "r-exec" for s in items)
    # the worker-side fault fired in a subprocess yet reached this recorder
    evs = [e for e in rec.events.snapshot() if e.name == "fault.injected"]
    assert evs and all(e.run == "r-exec" for e in evs)
    assert rec.metrics.as_dict().get("faults_injected_total", 0) >= 1


def test_metrics_state_roundtrip_merges_all_kinds():
    a = obs.MetricsRegistry()
    b = obs.MetricsRegistry()
    a.counter("c_total").inc(2)
    b.counter("c_total").inc(3)
    a.gauge("g").set(1.0)
    b.gauge("g").set(9.0)
    a.absorb_state(b.export_state())
    d = a.as_dict()
    assert d["c_total"] == 5.0
    assert d["g"] == 9.0
    assert a.gauge("g").min == 1.0 and a.gauge("g").max == 9.0
