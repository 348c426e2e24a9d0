"""Durable campaign store: round-trips, torn tails, replay, corruption."""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.states import ACTIVE_STATES, LIFECYCLE_ORDER, IllegalTransition, JobState
from repro.service.store import (
    JOBS_FILE,
    CampaignStore,
    IllegalDeadLetter,
    JobSpec,
    StoreCorruptError,
    StoreLockedError,
)


def make_store(path, n=3, clock=None, max_requeues=1):
    store = CampaignStore.create(path, seed=7, clock=clock)
    store.submit_campaign(
        "demo",
        [
            JobSpec(name=f"j{i}", params={"i": i}, max_requeues=max_requeues)
            for i in range(n)
        ],
        seed=3,
    )
    return store


def test_create_then_open_round_trip(tmp_path):
    store = make_store(tmp_path / "s")
    ids = [j.id for j in store.pending()]
    fp = store.fingerprint()
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")
    assert [j.id for j in reopened.pending()] == ids
    assert reopened.fingerprint() == fp
    assert reopened.manifest.seed == 7
    assert reopened.recovered_bytes == 0
    reopened.close()


def test_create_refuses_existing_store(tmp_path):
    make_store(tmp_path / "s").close()
    with pytest.raises(FileExistsError):
        CampaignStore.create(tmp_path / "s")


def test_open_refuses_missing_store(tmp_path):
    with pytest.raises(FileNotFoundError):
        CampaignStore.open(tmp_path / "nope")


def test_deterministic_job_ids(tmp_path):
    store = make_store(tmp_path / "s")
    assert [j.id for j in store.pending()] == ["demo.00000", "demo.00001", "demo.00002"]
    store.close()


def test_submit_validation(tmp_path):
    store = make_store(tmp_path / "s")
    with pytest.raises(ValueError, match="already submitted"):
        store.submit_campaign("demo", [JobSpec(name="x")])
    with pytest.raises(ValueError, match="at least one job"):
        store.submit_campaign("empty", [])
    with pytest.raises(ValueError, match="invalid campaign name"):
        store.submit_campaign("bad/name", [JobSpec(name="x")])
    store.close()


def test_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(name="x", n_nodes=0)
    with pytest.raises(ValueError):
        JobSpec(name="x", wall_estimate=0.0)
    with pytest.raises(ValueError):
        JobSpec(name="x", max_requeues=-1)


def test_transition_journals_and_replays(tmp_path):
    store = make_store(tmp_path / "s")
    store.transition("demo.00000", JobState.STAGED_IN)
    store.transition("demo.00000", JobState.PREPROCESSED)
    store.transition("demo.00001", JobState.STAGED_IN)
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.jobs["demo.00000"].state is JobState.PREPROCESSED
    assert reopened.jobs["demo.00001"].state is JobState.STAGED_IN
    assert reopened.jobs["demo.00002"].state is JobState.CREATED
    assert [s for s, _ in reopened.jobs["demo.00000"].history] == [
        "CREATED",
        "STAGED_IN",
        "PREPROCESSED",
    ]
    reopened.close()


def test_illegal_transition_rejected_before_disk(tmp_path):
    store = make_store(tmp_path / "s")
    journal_size = (tmp_path / "s" / JOBS_FILE).stat().st_size
    with pytest.raises(IllegalTransition):
        store.transition("demo.00000", JobState.RUNNING)
    assert (tmp_path / "s" / JOBS_FILE).stat().st_size == journal_size
    assert store.jobs["demo.00000"].state is JobState.CREATED
    store.close()


def test_unknown_job_transition(tmp_path):
    store = make_store(tmp_path / "s")
    with pytest.raises(KeyError):
        store.transition("nope", JobState.STAGED_IN)
    store.close()


def test_attempts_count_failed_entries(tmp_path):
    store = make_store(tmp_path / "s")
    store.transition("demo.00000", JobState.STAGED_IN)
    store.transition("demo.00000", JobState.FAILED, error="boom")
    assert store.jobs["demo.00000"].attempts == 1
    store.transition("demo.00000", JobState.CREATED)  # requeue
    assert store.jobs["demo.00000"].attempts == 1
    store.transition("demo.00000", JobState.FAILED)
    assert store.jobs["demo.00000"].attempts == 2
    store.close()


def test_dead_letter_only_from_failed(tmp_path):
    store = make_store(tmp_path / "s")
    with pytest.raises(IllegalDeadLetter):
        store.mark_dead_letter("demo.00000", "nope")
    store.transition("demo.00000", JobState.FAILED, error="boom")
    job = store.mark_dead_letter("demo.00000", "budget gone")
    assert job.dead_lettered
    assert store.dead_letter.total == 1
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.jobs["demo.00000"].dead_lettered
    assert reopened.dead_letter.total == 1  # replay repopulates the box
    reopened.close()


def test_torn_tail_recovery_re_derives_pending_set(tmp_path):
    """Garbage appended to the journal (a crash mid-write) is dropped on
    open and the pending set is identical to the pre-crash one."""
    store = make_store(tmp_path / "s")
    store.transition("demo.00000", JobState.STAGED_IN)
    pending_before = sorted(j.id for j in store.pending())
    store.close()

    jobs_path = tmp_path / "s" / JOBS_FILE
    with open(jobs_path, "ab") as fh:
        fh.write(b'{"kind": "job.transition", "job": "demo.00001", "fr')  # torn

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.recovered_bytes > 0
    assert sorted(j.id for j in reopened.pending()) == pending_before
    assert reopened.jobs["demo.00000"].state is JobState.STAGED_IN
    # and the store is writable again after recovery
    reopened.transition("demo.00001", JobState.STAGED_IN)
    reopened.close()
    CampaignStore.open(tmp_path / "s").close()


def test_torn_tail_loses_at_most_the_last_transition(tmp_path):
    store = make_store(tmp_path / "s")
    store.transition("demo.00000", JobState.STAGED_IN)
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    data = jobs_path.read_bytes()
    jobs_path.write_bytes(data[:-7])  # tear the final record

    reopened = CampaignStore.open(tmp_path / "s")
    # the torn record was the STAGED_IN transition: replay re-derives the
    # consistent earlier position
    assert reopened.jobs["demo.00000"].state is JobState.CREATED
    reopened.close()


def test_torn_line_longer_than_one_scan_chunk_costs_only_itself(tmp_path):
    """Regression: a > 1 MiB torn tail used to truncate the journal to 0
    bytes — the whole campaign gone, and the reopen *succeeding*."""
    store = make_store(tmp_path / "s", n=120)
    fingerprint = store.fingerprint()
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    complete = jobs_path.read_bytes()
    with open(jobs_path, "ab") as fh:
        fh.write(b'{"seq": 121, "kind": "job.transition", "error": "' + b"x" * (1 << 20))

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.recovered_bytes > 1 << 20
    assert jobs_path.read_bytes() == complete
    assert len(reopened.jobs) == 120 and reopened.fingerprint() == fingerprint
    reopened.close()


def test_interior_corruption_raises(tmp_path):
    store = make_store(tmp_path / "s")
    store.transition("demo.00000", JobState.STAGED_IN)
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    lines = jobs_path.read_bytes().splitlines(keepends=True)
    lines[1] = b"NOT JSON AT ALL\n"
    jobs_path.write_bytes(b"".join(lines))
    with pytest.raises(StoreCorruptError, match="interior record"):
        CampaignStore.open(tmp_path / "s")


def test_transition_for_unknown_job_is_corruption(tmp_path):
    store = make_store(tmp_path / "s")
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    with open(jobs_path, "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"kind": "job.transition", "job": "ghost", "from": "CREATED",
                 "to": "STAGED_IN", "wall": 0.0}
            )
            + "\n"
        )
    with pytest.raises(StoreCorruptError, match="unknown job"):
        CampaignStore.open(tmp_path / "s")


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "job.transition", "job": "demo.00000", "from": "CREATED", "to": "RUNNING"},
        {"kind": "job.transition", "job": "demo.00000", "from": "CREATED", "to": "LIMBO"},
        {"kind": "job.create", "job": {"campaign": "demo", "name": "no-id"}},
        {"kind": "job.create", "job": {"id": "demo.00009", "name": "no-campaign"}},
        {"kind": "job.dead_letter", "job": "demo.00000", "reason": "never failed"},
    ],
    ids=["forbidden-edge", "unknown-state", "create-without-id", "create-without-campaign",
         "dead-letter-not-failed"],
)  # fmt: skip
def test_replay_refuses_what_live_refuses(tmp_path, record):
    """Each record is one the live methods would have refused (IllegalTransition,
    an unknown JobState, a job without identity, IllegalDeadLetter)."""
    make_store(tmp_path / "s").close()  # seq 0..3: one campaign.create, three job.create
    with open(tmp_path / "s" / JOBS_FILE, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"seq": 4, "wall": 0.0, **record}) + "\n")
    with pytest.raises(StoreCorruptError, match="seq=4"):
        CampaignStore.open(tmp_path / "s")
    with pytest.raises(StoreCorruptError, match="seq=4"):
        CampaignStore.open(tmp_path / "s", readonly=True)


def test_manifest_format_tag_enforced(tmp_path):
    store = make_store(tmp_path / "s")
    store.close()
    manifest = tmp_path / "s" / "manifest.json"
    d = json.loads(manifest.read_text())
    d["format"] = "something-else/9"
    manifest.write_text(json.dumps(d))
    with pytest.raises(StoreCorruptError, match="format"):
        CampaignStore.open(tmp_path / "s")


def test_unknown_record_kinds_preserved(tmp_path):
    store = make_store(tmp_path / "s")
    store._append({"kind": "future.extension", "payload": {"x": 1}})
    store.close()
    reopened = CampaignStore.open(tmp_path / "s")  # no error
    assert len(reopened.jobs) == 3
    reopened.close()


def test_recover_rolls_back_in_flight_jobs(tmp_path):
    store = make_store(tmp_path / "s", n=4)
    store.transition("demo.00000", JobState.STAGED_IN)
    store.transition("demo.00001", JobState.STAGED_IN)
    store.transition("demo.00001", JobState.PREPROCESSED)
    store.transition("demo.00001", JobState.RUNNING)
    rolled = store.recover()
    assert sorted(rolled) == ["demo.00000", "demo.00001"]
    assert store.jobs["demo.00000"].state is JobState.CREATED
    assert store.jobs["demo.00001"].state is JobState.CREATED
    assert store.jobs["demo.00002"].state is JobState.CREATED
    assert store.jobs["demo.00003"].state is JobState.CREATED
    store.close()

    # the rollback is journaled: a reopen sees the recovered state
    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.jobs["demo.00001"].state is JobState.CREATED
    reopened.close()


def test_recover_requeues_stranded_failed_with_budget(tmp_path):
    """A crash between the FAILED append and the requeue: recovery
    finishes the requeue the dead worker would have performed."""
    store = make_store(tmp_path / "s", max_requeues=1)
    store.transition("demo.00000", JobState.STAGED_IN)
    store.transition("demo.00000", JobState.FAILED, error="boom")  # attempts=1
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")
    rolled = reopened.recover()
    assert rolled == ["demo.00000"]
    job = reopened.jobs["demo.00000"]
    assert job.state is JobState.CREATED
    assert not job.dead_lettered
    assert job.attempts == 1  # the requeue does not refund the budget
    reopened.close()


def test_recover_dead_letters_stranded_failed_without_budget(tmp_path):
    """A crash between the FAILED append and the dead-letter record:
    recovery dead-letters the job so the store can still reach done."""
    store = make_store(tmp_path / "s", max_requeues=0)
    store.transition("demo.00001", JobState.STAGED_IN)
    store.transition("demo.00001", JobState.FAILED, error="boom")  # budget gone
    assert not store.done  # FAILED but not dead-lettered: unresolved
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")
    rolled = reopened.recover()
    assert rolled == []  # dead-lettered, not requeued
    job = reopened.jobs["demo.00001"]
    assert job.state is JobState.FAILED
    assert job.dead_lettered
    assert reopened.dead_letter.total == 1
    # the other jobs drain normally; the resolution is durable
    for jid in ("demo.00000", "demo.00002"):
        for dst in (
            JobState.STAGED_IN,
            JobState.PREPROCESSED,
            JobState.RUNNING,
            JobState.RUN_DONE,
            JobState.POSTPROCESSED,
            JobState.JOB_FINISHED,
        ):
            reopened.transition(jid, dst)
    assert reopened.done
    reopened.close()

    again = CampaignStore.open(tmp_path / "s")
    assert again.jobs["demo.00001"].dead_lettered
    assert again.done
    again.close()


def test_status_and_done(tmp_path):
    store = make_store(tmp_path / "s", n=2)
    assert store.status() == {"demo": {"CREATED": 2}}
    assert not store.done
    for jid in ("demo.00000", "demo.00001"):
        for dst in (
            JobState.STAGED_IN,
            JobState.PREPROCESSED,
            JobState.RUNNING,
            JobState.RUN_DONE,
            JobState.POSTPROCESSED,
            JobState.JOB_FINISHED,
        ):
            store.transition(jid, dst)
    assert store.status() == {"demo": {"JOB_FINISHED": 2}}
    assert store.done
    store.close()


def test_fingerprint_ignores_clock(tmp_path):
    ticks_a = iter(float(i) for i in range(1000))
    ticks_b = iter(float(i * 100 + 5) for i in range(1000))
    a = make_store(tmp_path / "a", clock=lambda: next(ticks_a))
    b = make_store(tmp_path / "b", clock=lambda: next(ticks_b))
    a.transition("demo.00000", JobState.STAGED_IN)
    b.transition("demo.00000", JobState.STAGED_IN)
    assert a.fingerprint() == b.fingerprint()
    b.transition("demo.00001", JobState.STAGED_IN)
    assert a.fingerprint() != b.fingerprint()
    a.close()
    b.close()


@pytest.mark.parametrize(
    "n_nodes,wall_estimate,max_requeues",
    [(2, 10, 1), (2, 10.0, 1), (np.int64(2), np.float32(10), np.int32(1))],
    ids=["int", "float", "numpy"],
)
def test_fingerprint_survives_a_reopen_whatever_numeric_type_was_submitted(
    tmp_path, n_nodes, wall_estimate, max_requeues
):
    """The live record must hold what replay reads back (int/float), or the
    fingerprint tells ``wall_estimate=10`` from ``10.0`` across a reopen."""
    spec = JobSpec(
        name="a", n_nodes=n_nodes, wall_estimate=wall_estimate, max_requeues=max_requeues
    )
    assert spec == JobSpec(name="a", n_nodes=2, wall_estimate=10.0, max_requeues=1)
    assert (type(spec.n_nodes), type(spec.wall_estimate), type(spec.max_requeues)) == (
        int, float, int
    )  # fmt: skip
    fingerprints = []
    for root, job in [("s", spec), ("plain", JobSpec(name="a", n_nodes=2, wall_estimate=10.0))]:
        with CampaignStore.create(tmp_path / root, seed=1) as store:
            store.submit_campaign("demo", [job])
            fingerprints.append(store.fingerprint())
        with CampaignStore.open(tmp_path / root, readonly=True) as replayed:
            fingerprints.append(replayed.fingerprint())
    # one job, one fingerprint: live or replayed, however its numbers were spelled
    assert len(set(fingerprints)) == 1


def test_closed_store_refuses_writes(tmp_path):
    store = make_store(tmp_path / "s")
    store.close()
    with pytest.raises(RuntimeError, match="closed"):
        store.transition("demo.00000", JobState.STAGED_IN)


def test_context_manager(tmp_path):
    with make_store(tmp_path / "s") as store:
        assert not store.closed
    assert store.closed


def test_second_writer_is_rejected(tmp_path):
    """Two concurrent writable opens would interleave replayed job
    tables and corrupt the journal; the second must fail fast."""
    store = make_store(tmp_path / "s")
    with pytest.raises(StoreLockedError, match="another process"):
        CampaignStore.open(tmp_path / "s")
    store.close()
    # the lock dies with the holder: reopening after close works
    CampaignStore.open(tmp_path / "s").close()


def test_readonly_open_coexists_with_a_writer(tmp_path):
    store = make_store(tmp_path / "s")
    store.transition("demo.00000", JobState.STAGED_IN)

    view = CampaignStore.open(tmp_path / "s", readonly=True)
    assert view.jobs["demo.00000"].state is JobState.STAGED_IN
    assert view.status() == {"demo": {"CREATED": 2, "STAGED_IN": 1}}
    with pytest.raises(RuntimeError, match="read-only"):
        view.transition("demo.00001", JobState.STAGED_IN)
    view.close()
    assert view.closed

    # the writer is unaffected
    store.transition("demo.00001", JobState.STAGED_IN)
    store.close()


def test_readonly_open_ignores_torn_tail_without_truncating(tmp_path):
    store = make_store(tmp_path / "s")
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    with open(jobs_path, "ab") as fh:
        fh.write(b'{"kind": "job.transition", "job": "demo.00000", "fr')
    size_before = jobs_path.stat().st_size

    view = CampaignStore.open(tmp_path / "s", readonly=True)
    assert view.jobs["demo.00000"].state is JobState.CREATED
    assert jobs_path.stat().st_size == size_before  # untouched
    view.close()


def test_partial_submission_is_discarded_and_resubmittable(tmp_path):
    """A crash mid-submission leaves campaign.create plus a prefix of
    the job.create records; the next writable open discards the partial
    campaign (journaled) and resubmission succeeds."""
    store = make_store(tmp_path / "s", n=3)
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    lines = jobs_path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4  # campaign.create + 3 job.create
    jobs_path.write_bytes(b"".join(lines[:2]))  # crash after job #0

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.campaigns == {}
    assert reopened.jobs == {}
    specs = [JobSpec(name=f"j{i}", params={"i": i}) for i in range(3)]
    reopened.submit_campaign("demo", specs, seed=3)
    assert sorted(reopened.jobs) == ["demo.00000", "demo.00001", "demo.00002"]
    reopened.close()

    # the discard is journaled: replay stays consistent across reopens
    again = CampaignStore.open(tmp_path / "s")
    assert sorted(again.jobs) == ["demo.00000", "demo.00001", "demo.00002"]
    assert again.campaigns["demo"].expected_jobs == 3
    again.close()


def test_partial_submission_hidden_from_readonly_view(tmp_path):
    store = make_store(tmp_path / "s", n=3)
    store.close()
    jobs_path = tmp_path / "s" / JOBS_FILE
    lines = jobs_path.read_bytes().splitlines(keepends=True)
    jobs_path.write_bytes(b"".join(lines[:2]))
    size_before = jobs_path.stat().st_size

    view = CampaignStore.open(tmp_path / "s", readonly=True)
    assert view.campaigns == {}  # hidden, but not journaled as discarded
    assert jobs_path.stat().st_size == size_before
    view.close()


def test_concurrent_transitions_from_threads_replay_cleanly(tmp_path):
    """validate+append+apply under one lock: racing threads can never
    journal two departures from the same replayed state."""
    import threading

    store = make_store(tmp_path / "s", n=8)
    errors = []

    def advance(jid):
        try:
            for dst in (
                JobState.STAGED_IN,
                JobState.PREPROCESSED,
                JobState.RUNNING,
                JobState.RUN_DONE,
                JobState.POSTPROCESSED,
                JobState.JOB_FINISHED,
            ):
                store.transition(jid, dst)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=advance, args=(f"demo.{i:05d}",)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert store.done
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")  # replay accepts the journal
    assert reopened.done
    reopened.close()


# -- live == replay ---------------------------------------------------------------

OPS = st.lists(
    st.tuples(st.sampled_from(["advance", "fail", "dead_letter", "recover"]), st.integers(0, 7)),
    max_size=40,
)


def apply_op(store: CampaignStore, op: str, job_id: str) -> None:
    """One live mutation, only ever a legal one."""
    job = store.jobs[job_id]
    if op == "recover":
        store.recover()
    elif op == "fail" and job.state in ACTIVE_STATES:
        store.transition(job_id, JobState.FAILED, error=f"boom {job.attempts}")
    elif op == "dead_letter" and job.state is JobState.FAILED and not job.dead_lettered:
        store.mark_dead_letter(job_id, "gave up")
    elif op == "advance" and job.state is JobState.FAILED and not job.dead_lettered:
        store.transition(job_id, JobState.CREATED, error=job.error)  # the requeue
    elif op == "advance" and job.state in ACTIVE_STATES:
        dst = LIFECYCLE_ORDER[LIFECYCLE_ORDER.index(job.state) + 1]
        result = {"halos": len(job.history)} if dst is JobState.JOB_FINISHED else None
        store.transition(job_id, dst, result=result)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2), ops=OPS)
def test_a_live_store_equals_its_readonly_reopen(sizes, ops):
    """Live mutations apply through replay's code, so a reopen rebuilds every
    field, walls included: one clock read per record, shared by both."""
    ticks = itertools.count(1)
    with tempfile.TemporaryDirectory() as tmp:
        store = CampaignStore.create(Path(tmp) / "s", seed=1, clock=lambda: float(next(ticks)))
        with store.batch():
            for c, n in enumerate(sizes):
                specs = [JobSpec(name=f"j{i}", max_requeues=i % 2) for i in range(n)]
                store.submit_campaign(f"c{c}", specs, seed=c)
            ids = list(store.jobs)
            for op, k in ops:
                apply_op(store, op, ids[k % len(ids)])
        with CampaignStore.open(Path(tmp) / "s", readonly=True) as view:
            assert view.jobs == store.jobs  # every JobRecord field, history included
            assert view.campaigns == store.campaigns  # created included
            assert view.dead_letter.entries() == store.dead_letter.entries()
            assert view.dead_letter.total == store.dead_letter.total
            assert view.fingerprint() == store.fingerprint()
        store.close()


def test_one_submit_and_one_transition_replay_their_live_walls(tmp_path):
    ticks = itertools.count(1)
    store = make_store(tmp_path / "s", n=1, clock=lambda: float(next(ticks)))
    store.transition("demo.00000", JobState.STAGED_IN)
    # one read each: manifest 1.0, campaign.create 2.0, job.create 3.0, transition 4.0
    assert store.campaigns["demo"].created == 2.0
    assert store.jobs["demo.00000"].history == [("CREATED", 3.0), ("STAGED_IN", 4.0)]
    store.close()
    with CampaignStore.open(tmp_path / "s", readonly=True) as view:
        assert view.campaigns == store.campaigns and view.jobs == store.jobs
