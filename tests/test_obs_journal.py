"""Durable run journal: format, crash recovery, recorder bounding.

The acceptance contracts of :mod:`repro.obs.journal`:

* a journal is a run directory — atomic ``manifest.json`` plus an
  append-only ``journal.jsonl`` with one complete JSON record per line;
* a torn final line (crash mid-write) is dropped on read and truncated
  away on re-open, so the journal survives its producer dying;
* concurrent writers interleave at line granularity (atomic framing);
* attaching a journal to a recorder bounds the in-memory buffers (the
  journal is the archive; RAM holds a spill window);
* a process that exits without ``close()`` still flushes via ``atexit``
  — crashed runs keep their tail, and the missing ``run.end`` marks
  them incomplete.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import journal as journal_module
from repro.obs.journal import (
    AppendLog,
    RunJournal,
    RunManifest,
    config_hash,
    find_journal,
    read_journal,
    read_records,
    recover_tail,
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- manifest ------------------------------------------------------------------


def test_config_hash_is_order_insensitive():
    a = config_hash({"b": 1, "a": {"y": 2, "x": [1, 2]}})
    b = config_hash({"a": {"x": [1, 2], "y": 2}, "b": 1})
    assert a == b
    assert a != config_hash({"b": 2, "a": {"y": 2, "x": [1, 2]}})


def test_manifest_roundtrip(tmp_path):
    m = RunManifest(
        run_id="r1",
        created=123.0,
        config={"threshold": 5},
        seeds={"sim": 42},
        fault_plan={"seed": 7, "sites": {}},
        code_version="git:abc",
        extra={"note": "hi"},
    )
    m.save(tmp_path / "manifest.json")
    back = RunManifest.load(tmp_path / "manifest.json")
    assert back.run_id == "r1"
    assert back.seeds == {"sim": 42}
    assert back.fault_plan == {"seed": 7, "sites": {}}
    assert back.config_hash == config_hash({"threshold": 5})
    assert json.loads((tmp_path / "manifest.json").read_text())["format"] == "repro-journal/1"


# -- journal write / read ------------------------------------------------------


def test_journal_create_write_close_read(tmp_path):
    with RunJournal.create(tmp_path, run_id="caseA", config={"k": 1}) as j:
        j.write({"kind": "event", "name": "hello", "fields": {"n": 1}})
        j.metrics_snapshot({"x_total": 3.0}, label="final")
        j.failure({"stage": "offline", "key": "7"})
    view = read_journal(tmp_path / "caseA")
    assert view.complete and not view.truncated and view.corrupt == 0
    kinds = [r["kind"] for r in view.records]
    assert kinds[0] == "run.start" and kinds[-1] == "run.end"
    assert [r["seq"] for r in view.records] == list(range(len(view.records)))
    assert view.last_metrics() == {"x_total": 3.0}
    assert view.failures() == [{"kind": "failure", "seq": 3, "stage": "offline", "key": "7"}]


def test_duplicate_run_id_refused(tmp_path):
    RunJournal.create(tmp_path, run_id="caseA").close()
    with pytest.raises(FileExistsError):
        RunJournal.create(tmp_path, run_id="caseA")


def test_write_after_close_is_refused(tmp_path):
    j = RunJournal.create(tmp_path, run_id="caseA")
    assert j.write({"kind": "event", "name": "a"}) >= 0
    j.close()
    assert j.write({"kind": "event", "name": "late"}) == -1


def test_find_journal_resolves_file_dir_and_root(tmp_path):
    j = RunJournal.create(tmp_path, run_id="caseA")
    j.close()
    p = str(tmp_path / "caseA" / "journal.jsonl")
    assert find_journal(p) == p
    assert find_journal(tmp_path / "caseA") == p
    assert find_journal(tmp_path) == p  # root with exactly one run
    RunJournal.create(tmp_path, run_id="caseB").close()
    with pytest.raises(FileNotFoundError):
        find_journal(tmp_path)  # ambiguous root names the candidates


# -- crash recovery ------------------------------------------------------------


def test_truncated_tail_is_dropped_on_read(tmp_path):
    j = RunJournal.create(tmp_path, run_id="caseA")
    j.write({"kind": "event", "name": "kept"})
    j.flush()
    path = tmp_path / "caseA" / "journal.jsonl"
    with open(path, "ab") as fh:  # simulate a crash mid-write
        fh.write(b'{"kind": "event", "name": "torn", "fie')
    view = read_journal(path)
    assert view.truncated
    assert [r.get("name") for r in view.records] == [None, "kept"]
    assert not view.complete


def test_reopen_truncates_torn_tail_and_continues_seq(tmp_path):
    j = RunJournal.create(tmp_path, run_id="caseA")
    j.write({"kind": "event", "name": "kept"})
    j.flush()
    path = tmp_path / "caseA" / "journal.jsonl"
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "ev')
    j2 = RunJournal.open(tmp_path / "caseA")
    j2.write({"kind": "event", "name": "resumed"})
    j2.close()
    view = read_journal(path)
    assert not view.truncated and view.complete
    names = [r.get("name") for r in view.records if r["kind"] == "event"]
    assert names == ["kept", "resumed"]
    seqs = [r["seq"] for r in view.records]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_recover_tail_noop_on_clean_file(tmp_path):
    p = tmp_path / "j.jsonl"
    p.write_bytes(b'{"a": 1}\n{"b": 2}\n')
    assert recover_tail(p) == 0
    p.write_bytes(b'{"a": 1}\n{"b"')
    assert recover_tail(p) == 4
    assert p.read_bytes() == b'{"a": 1}\n'


def test_torn_line_longer_than_one_scan_chunk_costs_only_itself(tmp_path):
    """Regression: a > 1 MiB torn tail used to truncate the file to 0 bytes."""
    j = RunJournal.create(tmp_path, run_id="caseA")
    for i in range(150):
        j.write({"kind": "event", "name": f"e{i}"})
    j.flush()
    path = tmp_path / "caseA" / "journal.jsonl"
    complete = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "event", "name": "' + b"x" * (journal_module.TAIL_CHUNK + 4096))
    j2 = RunJournal.open(tmp_path / "caseA")
    assert path.read_bytes() == complete  # every complete record survived
    assert j2.write({"kind": "event", "name": "resumed"}) == 151
    j2.close()
    view = read_journal(path)
    assert [e.name for e in view.events()] == [f"e{i}" for i in range(150)] + ["resumed"]


_json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=6)
_records = st.lists(
    st.dictionaries(st.text(max_size=4).filter(lambda k: k != "seq"), _json_scalars, max_size=3),
    max_size=10,
)


@pytest.mark.parametrize("fsync_each", [False, True], ids=["batched", "fsync-each"])
@settings(max_examples=60, deadline=None)
@given(records=_records, data=st.data(), chunk=st.sampled_from([1, 5, 1 << 20]))
def test_any_cut_recovers_the_longest_complete_prefix(fsync_each, records, data, chunk):
    """Cut the file at any byte: a writable reopen keeps exactly the
    complete records before the cut and continues ``seq`` from there, and
    the reader already saw that same prefix in the cut file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.jsonl")
        log = AppendLog(path, fsync_each=fsync_each)
        assert [log.append(r) for r in records] == list(range(len(records)))
        log.close()
        with open(path, "rb") as fh:
            whole = fh.read()
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        with open(path, "wb") as fh:
            fh.write(whole[:cut])
        keep = whole.rfind(b"\n", 0, cut) + 1
        survivors = [{"seq": i, **r} for i, r in enumerate(records)][: whole[:cut].count(b"\n")]

        assert read_records(path) == (survivors, keep < cut, [])

        saved, journal_module.TAIL_CHUNK = journal_module.TAIL_CHUNK, chunk
        try:
            log, replayed, corrupt = AppendLog.reopen(path, fsync_each=fsync_each)
        finally:
            journal_module.TAIL_CHUNK = saved
        assert (replayed, corrupt, log.recovered_bytes) == (survivors, [], cut - keep)
        with open(path, "rb") as fh:
            assert fh.read() == whole[:keep]
        assert log.append({"kind": "next"}) == len(survivors)
        log.close()
        after, truncated, corrupt = read_records(path)
        assert after == survivors + [{"seq": len(survivors), "kind": "next"}]
        assert not truncated and not corrupt


def test_corrupt_interior_line_is_counted_not_fatal(tmp_path):
    j = RunJournal.create(tmp_path, run_id="caseA")
    j.write({"kind": "event", "name": "a"})
    j.flush()
    path = tmp_path / "caseA" / "journal.jsonl"
    with open(path, "ab") as fh:
        fh.write(b"NOT JSON AT ALL\n")
    j2 = RunJournal.open(tmp_path / "caseA")
    j2.write({"kind": "event", "name": "b"})
    j2.close()
    view = read_journal(path)
    assert view.corrupt == 1
    assert [e.name for e in view.events()] == ["a", "b"]


def test_concurrent_writers_interleave_at_line_granularity(tmp_path):
    j = RunJournal.create(tmp_path, run_id="caseA")
    n_threads, per_thread = 8, 200

    def pound(t: int) -> None:
        for i in range(per_thread):
            j.write({"kind": "event", "name": f"t{t}", "fields": {"i": i}})

    threads = [threading.Thread(target=pound, args=(t,)) for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    j.close()
    view = read_journal(tmp_path / "caseA")
    assert view.corrupt == 0 and not view.truncated
    events = view.events()
    assert len(events) == n_threads * per_thread
    # every thread's records arrive in its own program order
    for t in range(n_threads):
        seq = [e.fields["i"] for e in events if e.name == f"t{t}"]
        assert seq == list(range(per_thread))
    # seq numbering is a total order with no gaps
    seqs = [r["seq"] for r in view.records]
    assert seqs == list(range(len(view.records)))


def test_atexit_flush_preserves_tail_of_crashed_run(tmp_path):
    """A producer that never calls close() still lands its records."""
    script = (
        "import sys\n"
        "from repro.obs.journal import RunJournal\n"
        "j = RunJournal.create(sys.argv[1], run_id='crashy')\n"
        "for i in range(5):\n"
        "    j.write({'kind': 'event', 'name': f'e{i}'})\n"
        # no close(), no flush(), fewer records than one flush batch:
        # interpreter exit must save the tail
    )
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], check=True, env=env, timeout=60
    )
    view = read_journal(tmp_path / "crashy")
    assert not view.complete  # no run.end: this run crashed
    assert [e.name for e in view.events()] == [f"e{i}" for i in range(5)]


# -- commit scopes (AppendLog.batch) --------------------------------------------


@pytest.fixture
def fsyncs(tmp_path, monkeypatch):
    """How many records ``log.jsonl`` held at each ``os.fsync`` of it."""
    seen: list[int] = []

    def spy(fd: int) -> None:
        assert os.fstat(fd).st_ino == os.stat(tmp_path / "log.jsonl").st_ino
        seen.append((tmp_path / "log.jsonl").read_bytes().count(b"\n"))

    monkeypatch.setattr(journal_module.os, "fsync", spy)
    return seen


def test_batch_defers_the_fsync_not_the_write(tmp_path, fsyncs):
    path = tmp_path / "log.jsonl"
    log = AppendLog(path, fsync_each=True)
    log.append({"n": 0})
    assert fsyncs == [1]  # outside a scope: fsynced before append returns
    with log.batch():
        log.append({"n": 1})
        with log.batch():  # re-entrant: only the outermost exit commits
            log.append({"n": 2})
        log.append({"n": 3})
        # each record is in the OS before its append returns (journal-before-apply)
        assert [r["n"] for r in read_records(path)[0]] == [0, 1, 2, 3]
        assert fsyncs == [1]
    assert fsyncs == [1, 4]
    with log.batch():
        pass  # nothing appended, nothing to pay for
    assert fsyncs == [1, 4]
    log.append({"n": 4})
    log.close()
    assert fsyncs == [1, 4, 5, 5]


def test_batch_that_raises_still_commits_what_it_appended(tmp_path, fsyncs):
    log = AppendLog(tmp_path / "log.jsonl", fsync_each=True)
    with pytest.raises(RuntimeError, match="mid-batch"):
        with log.batch():
            log.append({"n": 0})
            log.append({"n": 1})
            raise RuntimeError("mid-batch")
    assert fsyncs == [2]
    log.close()


def test_batch_is_per_thread(tmp_path, fsyncs):
    """A thread appending beside another thread's open scope keeps the
    unbatched guarantee: fsynced before its append returns."""
    log = AppendLog(tmp_path / "log.jsonl", fsync_each=True)
    inside, appended = threading.Event(), threading.Event()

    def batched() -> None:
        with log.batch():
            log.append({"who": "batched"})
            inside.set()
            assert appended.wait(timeout=10)
            log.append({"who": "batched"})

    th = threading.Thread(target=batched)
    th.start()
    assert inside.wait(timeout=10)
    log.append({"who": "bare"})
    assert fsyncs == [2]  # ... which also carried the open scope's first record
    appended.set()
    th.join(timeout=10)
    assert not th.is_alive()
    assert fsyncs == [2, 3]
    log.close()


def test_batch_leaves_the_batched_flush_policy_alone(tmp_path, fsyncs):
    """``fsync_each=False`` (run journals, the recorder's sink): a scope
    neither fsyncs nor changes when the buffer is handed to the OS."""
    path = tmp_path / "log.jsonl"
    log = AppendLog(path)
    with log.batch():
        for n in range(journal_module.DEFAULT_FLUSH_EVERY + 3):
            log.append({"n": n})
    assert fsyncs == []
    assert len(read_records(path)[0]) == journal_module.DEFAULT_FLUSH_EVERY
    log.close()
    assert fsyncs == [journal_module.DEFAULT_FLUSH_EVERY + 3]


# -- recorder integration (satellite: bounded buffers) -------------------------


def test_attach_journal_bounds_recorder_buffers(tmp_path):
    rec = obs.TelemetryRecorder(run_id="caseA", capacity=100_000)
    j = RunJournal.create(tmp_path, run_id="caseA")
    rec.attach_journal(j, spill_capacity=16)
    for i in range(200):
        rec.event("tick", i=i)
        with rec.span("work", i=i):
            pass
    assert len(rec.events) <= 16
    assert len(rec.tracer) <= 16
    rec.detach_journal()
    j.close()
    view = read_journal(tmp_path / "caseA")
    # ... but the journal archived every one of them
    assert sum(1 for e in view.events() if e.name == "tick") == 200
    assert sum(1 for s in view.spans() if s.name == "work") == 200


def test_journal_records_spans_events_metrics_from_recorder(tmp_path):
    rec = obs.TelemetryRecorder(run_id="caseA")
    j = RunJournal.create(tmp_path, run_id="caseA")
    rec.attach_journal(j)
    with rec.span("outer"):
        with rec.span("inner"):
            rec.event("deep", level="warning")
    rec.counter("widgets_total").inc(3)
    j.metrics_snapshot(rec.metrics.as_dict(), label="final")
    rec.detach_journal()
    j.close()
    view = read_journal(tmp_path / "caseA")
    spans = {s.name: s for s in view.spans()}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert [e.name for e in view.events()] == ["deep"]
    assert view.last_metrics()["widgets_total"] == 3.0
