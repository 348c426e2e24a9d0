"""The store's commit boundary (ARCHITECTURE.md, "Durable files").

* where every ``fsync`` lands: one per submission, one per job *visit*,
  always on a resting record — never on a state recovery rolls back;
* the contract that buys: cut ``jobs.jsonl`` anywhere (what power loss
  inside a commit scope leaves behind), reopen, resubmit if the campaign
  was swept as partial, ``recover``, ``drain`` — and the store reaches the
  uninterrupted run's fingerprint and products;
* a failed ``fsync`` is the store's failure, never a job's.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RetryPolicy
from repro.service.states import JobState
from repro.service.store import JOBS_FILE, CampaignStore, JobSpec
from repro.service.worker import ServiceWorker

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)

MIXED = [
    JobSpec(name="a", kind="noop", params={"i": 0}),
    JobSpec(name="b", kind="fail", max_requeues=1),
    JobSpec(name="c", kind="noop", params={"i": 2}, n_nodes=2),
    JobSpec(name="d", kind="fail", max_requeues=0),
]


def run_campaign(root: Path, specs: list[JobSpec]) -> CampaignStore:
    store = CampaignStore.create(root, seed=7)
    store.submit_campaign("demo", specs, seed=3)
    ServiceWorker(store, retry=FAST_RETRY).drain()
    return store


def product_bytes(root: Path) -> dict[str, bytes]:
    products = root / "products"
    return {p.name: p.read_bytes() for p in products.iterdir()} if products.is_dir() else {}


# -- (a) every flush is counted and placed -------------------------------------


@pytest.fixture
def flushes(tmp_path, monkeypatch):
    """Every ``os.fsync`` the durable layer issues, as the last complete
    record in the file it hit at that instant (``None`` for a file that is
    not the job journal)."""
    seen: list[dict | None] = []

    def spy(fd: int) -> None:
        inode = os.fstat(fd).st_ino
        path = next(p for p in tmp_path.rglob("*") if p.stat().st_ino == inode)
        if path.name != JOBS_FILE:
            seen.append(None)  # the manifest's temp file
            return
        complete = path.read_bytes().rpartition(b"\n")[0]
        seen.append(json.loads(complete.rpartition(b"\n")[2]))

    monkeypatch.setattr("repro.obs.journal.os.fsync", spy)
    return seen


def is_resting(record: dict, last_index: int) -> bool:
    """A record recovery keeps — never an in-flight state or a bare ``FAILED``,
    which ``recover()`` would roll back or resolve."""
    kind = record["kind"]
    if kind == "job.create":
        return record["job"]["id"].endswith(f".{last_index:05d}")
    if kind == "job.transition":
        return record["to"] in ("JOB_FINISHED", "CREATED")
    return kind == "job.dead_letter"


def test_a_noop_campaign_flushes_once_per_submission_job_and_close(tmp_path, flushes):
    n = 5
    store = run_campaign(tmp_path / "s", [JobSpec(name=f"j{i}") for i in range(n)])
    store.close()
    assert len(flushes) == 1 + 1 + n + 1  # manifest, submit, one per job, close
    assert flushes[0] is None
    journal = flushes[1:]
    assert journal[0]["kind"] == "job.create" and journal[0]["job"]["id"] == f"demo.{n - 1:05d}"
    assert [r["to"] for r in journal[1 : 1 + n]] == ["JOB_FINISHED"] * n
    assert [r["job"] for r in journal[1 : 1 + n]] == [f"demo.{i:05d}" for i in range(n)]
    assert journal[-1] == journal[-2]  # close lands where the last job did
    # a reopen with nothing to recover journals nothing: its scope costs no flush
    with CampaignStore.open(tmp_path / "s") as again:
        assert again.recover() == []
    assert len(flushes) == n + 3 + 1  # ... but its close


def test_a_failing_job_flushes_once_per_visit_and_only_on_resting_records(tmp_path, flushes):
    store = run_campaign(tmp_path / "s", MIXED)
    assert store.done
    store.close()
    journal = flushes[1:]
    assert all(is_resting(r, len(MIXED) - 1) for r in journal), journal
    landed = [(r["job"], r.get("to", r["kind"])) for r in journal[1:-1]]
    assert landed == [
        ("demo.00000", "JOB_FINISHED"),
        ("demo.00001", "CREATED"),  # first visit: FAILED -> requeued
        ("demo.00002", "JOB_FINISHED"),
        ("demo.00003", "job.dead_letter"),  # no budget: one visit
        ("demo.00001", "job.dead_letter"),  # second visit
    ]


def test_recovery_commits_all_its_rollbacks_in_one_flush(tmp_path, flushes):
    store = CampaignStore.create(tmp_path / "s", seed=7)
    store.submit_campaign("demo", [JobSpec(name=f"j{i}") for i in range(3)])
    for job_id in store.jobs:
        store.transition(job_id, JobState.STAGED_IN)
    store.close()
    before = len(flushes)
    assert before == 1 + 1 + 3 + 1  # a bare transition is fsynced before it returns
    with CampaignStore.open(tmp_path / "s") as again:
        assert again.recover() == list(again.jobs)
        assert len(flushes) == before + 1
        assert flushes[-1]["recovery"] and flushes[-1]["job"] == "demo.00002"


# -- (b) cut anywhere, at campaign level ----------------------------------------


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The mixed campaign run to completion: root, journal bytes, record
    boundaries, fingerprint, products."""
    root = tmp_path_factory.mktemp("reference") / "s"
    store = run_campaign(root, MIXED)
    assert store.done
    fingerprint = store.fingerprint()
    store.close()
    whole = (root / JOBS_FILE).read_bytes()
    boundaries = [0] + [i + 1 for i, b in enumerate(whole) if b == ord("\n")]
    return root, whole, boundaries, fingerprint, product_bytes(root)


def resume_from_cut(reference, scratch: Path, cut: int, keep_products: bool) -> None:
    root, whole, _, fingerprint, products = reference
    shutil.copytree(root, scratch / "s")
    (scratch / "s" / JOBS_FILE).write_bytes(whole[:cut])
    if not keep_products:
        shutil.rmtree(scratch / "s" / "products")
    with CampaignStore.open(scratch / "s") as store:
        if "demo" not in store.campaigns:  # cut mid-submission: swept as partial
            store.submit_campaign("demo", MIXED, seed=3)
        rerun = {j.id for j in store.jobs.values() if not j.finished}
        store.recover()
        ServiceWorker(store, retry=FAST_RETRY).drain()
        assert store.done
        assert store.fingerprint() == fingerprint
    with CampaignStore.open(scratch / "s", readonly=True) as view:
        assert view.fingerprint() == fingerprint  # ... and it is what the journal says
    # a product the journal already called finished is not written again, so a
    # lost one stays lost (products are deliberately un-fsynced); every job
    # the resumed worker had to run leaves exactly the reference's bytes
    expected = {
        name: blob
        for name, blob in products.items()
        if keep_products or name.removesuffix(".json") in rerun
    }
    assert product_bytes(scratch / "s") == expected


@pytest.mark.parametrize("keep_products", [True, False], ids=["products-intact", "products-lost"])
def test_every_record_boundary_resumes_to_the_uninterrupted_outcome(
    reference, tmp_path, keep_products
):
    boundaries = reference[2]
    assert len(boundaries) == 1 + 1 + len(MIXED) + 2 * 6 + 2 * 5 + 5  # see MIXED
    for i, cut in enumerate(boundaries):
        resume_from_cut(reference, tmp_path / str(i), cut, keep_products)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), keep_products=st.booleans())
def test_any_byte_cut_resumes_to_the_uninterrupted_outcome(reference, data, keep_products):
    cut = data.draw(st.integers(0, len(reference[1])), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        resume_from_cut(reference, Path(tmp), cut, keep_products)


# -- a failed fsync is not swallowed, and is not a job failure ---------------------


def raising(code: int):
    def fsync(fd: int) -> None:
        raise OSError(code, os.strerror(code))

    return fsync


def test_a_failed_fsync_leaves_transition_and_run_job(tmp_path, monkeypatch):
    store = CampaignStore.create(tmp_path / "s", seed=7)
    store.submit_campaign("demo", [JobSpec(name="a"), JobSpec(name="b", max_requeues=0)])
    worker = ServiceWorker(store, retry=FAST_RETRY)
    with monkeypatch.context() as broken:
        broken.setattr("repro.obs.journal.os.fsync", raising(errno.EIO))
        with pytest.raises(OSError, match="Input/output error"):
            store.transition("demo.00000", JobState.STAGED_IN)  # unbatched: at once
        with pytest.raises(OSError, match="Input/output error"):
            worker.run_job(store.jobs["demo.00001"])  # batched: at scope exit
        with pytest.raises(OSError, match="Input/output error"):
            store.close()
    assert store.closed  # ... and still gave up the writer lock
    with CampaignStore.open(tmp_path / "s") as again:
        # the disk's error was never filed against the job
        assert again.jobs["demo.00001"].state is JobState.JOB_FINISHED
        assert again.jobs["demo.00001"].attempts == 0
        assert again.dead_letter.total == 0
        assert not any(j.state is JobState.FAILED for j in again.jobs.values())


@pytest.mark.parametrize("code", [errno.EINVAL, errno.ENOTSUP])
def test_an_fd_that_cannot_sync_is_still_tolerated(tmp_path, monkeypatch, code):
    store = CampaignStore.create(tmp_path / "s", seed=7)
    monkeypatch.setattr("repro.obs.journal.os.fsync", raising(code))
    store.submit_campaign("demo", [JobSpec(name="a")])
    store.transition("demo.00000", JobState.STAGED_IN)
    store.recover()
    assert ServiceWorker(store, retry=FAST_RETRY).drain() == 1
    store.close()
    assert store.closed and store.done
