"""repro.obs.events: ring semantics, correlation fields, JSONL replay."""

from __future__ import annotations

import json
import threading

from repro import obs
from repro.obs import Event, EventLog, read_journal
from repro.obs.events import merge_timelines


def test_emit_stamps_monotonic_and_fields():
    log = EventLog()
    e1 = log.emit("a", step=3, rank=1, path="/x")
    e2 = log.emit("b", level="error")
    assert e2.t >= e1.t
    assert e1.step == 3 and e1.rank == 1 and e1.fields == {"path": "/x"}
    assert e2.level == "error"
    assert len(log) == 2


def test_ring_is_bounded_and_counts_drops():
    log = EventLog(capacity=4)
    for i in range(10):
        log.emit("tick", i=i)
    assert len(log) == 4
    assert log.emitted_total == 10
    assert log.dropped_total == 6
    # oldest aged out, newest retained
    assert [e.fields["i"] for e in log.snapshot()] == [6, 7, 8, 9]


def test_by_level_filters():
    log = EventLog()
    log.emit("ok")
    log.emit("bad", level="error")
    log.emit("bad2", level="error")
    assert [e.name for e in log.by_level("error")] == ["bad", "bad2"]


def test_event_dict_round_trip():
    log = EventLog()
    ev = log.emit("x", level="warn", run="r1", step=7, rank=2, nbytes=123)
    back = Event.from_dict(json.loads(json.dumps(ev.to_dict())))
    assert back == ev


def test_concurrent_emit_is_safe():
    log = EventLog(capacity=100_000)
    n, threads = 2000, 8

    def worker(tid):
        for i in range(n):
            log.emit("w", tid=tid, i=i)

    ts = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert log.emitted_total == n * threads
    assert len(log) == n * threads


def test_jsonl_sink_replay(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with obs.telemetry(run_id="r", jsonl_path=path) as rec:
        for i in range(5):
            rec.event("tick", i=i)
        with rec.span("s"):
            pass
        rec.sink.append({"kind": "mystery"})  # unknown kinds are preserved, not replayed
    view = read_journal(path)
    assert [e.fields["i"] for e in view.events()] == [0, 1, 2, 3, 4]
    assert [s.name for s in view.spans()] == ["s"]
    assert [r["seq"] for r in view.records] == list(range(7))
    assert view.manifest is None and not view.truncated and view.corrupt == 0


def test_jsonl_sink_tolerates_late_writes(tmp_path):
    path = str(tmp_path / "x.jsonl")
    with obs.telemetry(jsonl_path=path) as rec:
        rec.event("a")
    rec.event("late")  # the sink is closed: no raise, nothing written
    assert [e.name for e in read_journal(path).events()] == ["a"]


def test_jsonl_sink_resumes_an_existing_file(tmp_path):
    """The sink is the one durable log: a torn tail is dropped, seq continues."""
    path = tmp_path / "x.jsonl"
    with obs.telemetry(jsonl_path=str(path)) as rec:
        rec.event("a")
    with open(path, "ab") as fh:
        fh.write(b'{"seq": 1, "kind": "ev')
    with obs.telemetry(jsonl_path=str(path)) as rec:
        rec.event("b")
    view = read_journal(path)
    assert [e.name for e in view.events()] == ["a", "b"]
    assert [r["seq"] for r in view.records] == [0, 1] and not view.truncated


def test_merge_timelines_orders_by_monotonic_time():
    a, b = EventLog(), EventLog()
    a.emit("1")
    b.emit("2")
    a.emit("3")
    merged = merge_timelines(a.snapshot(), b.snapshot())
    assert [e.name for e in merged] == ["1", "2", "3"]
