"""Pull worker: lifecycle, fault absorption, dead-letter, crash/resume."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_plan
from repro.service.states import JobState
from repro.service.store import CampaignStore, JobSpec
from repro.service.worker import (
    PAYLOADS,
    ServiceWorker,
    payload_digest,
    register_payload,
    run_payload,
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)

HAPPY_PATH = [
    "CREATED",
    "STAGED_IN",
    "PREPROCESSED",
    "RUNNING",
    "RUN_DONE",
    "POSTPROCESSED",
    "JOB_FINISHED",
]


def make_store(path, specs):
    store = CampaignStore.create(path, seed=7)
    store.submit_campaign("demo", specs, seed=3)
    return store


def test_full_lifecycle_order(tmp_path):
    store = make_store(tmp_path / "s", [JobSpec(name="a", kind="noop")])
    worker = ServiceWorker(store, retry=FAST_RETRY)
    assert worker.drain() == 1
    job = store.jobs["demo.00000"]
    assert [s for s, _ in job.history] == HAPPY_PATH
    assert job.result == {"ok": True, "echo": {}}
    product = json.loads(
        (tmp_path / "s" / "products" / "demo.00000.json").read_text()
    )
    assert product == {"job": "demo.00000", "result": {"ok": True, "echo": {}}}
    store.close()


def test_synthetic_centers_payload_is_deterministic():
    a = run_payload("synthetic_centers", {"seed": 11})
    b = run_payload("synthetic_centers", {"seed": 11})
    c = run_payload("synthetic_centers", {"seed": 12})
    assert a == b
    assert a["digest"] == payload_digest({k: v for k, v in a.items() if k != "digest"})
    assert a != c
    assert a["halos"] >= 1


def test_unknown_payload_kind():
    with pytest.raises(KeyError, match="registered"):
        run_payload("no-such-kind", {})


def test_register_payload_decorator():
    @register_payload("test_twice_kind")
    def double(params):
        return {"doubled": params["x"] * 2}

    try:
        assert run_payload("test_twice_kind", {"x": 21}) == {"doubled": 42}
    finally:
        del PAYLOADS["test_twice_kind"]


def test_stage_in_rejects_missing_input(tmp_path):
    store = make_store(
        tmp_path / "s",
        [JobSpec(name="a", kind="noop", params={"path": "/no/such/file"},
                 max_requeues=0)],
    )
    worker = ServiceWorker(store, retry=FAST_RETRY)
    assert worker.drain() == 0
    job = store.jobs["demo.00000"]
    assert job.state is JobState.FAILED
    assert job.dead_lettered
    assert "does not exist" in (job.error or "")
    store.close()


def test_transient_fault_absorbed_by_retry(tmp_path):
    """fail_first=1 at service.job: the retry layer absorbs it, the
    lifecycle shows no FAILED visit at all."""
    store = make_store(tmp_path / "s", [JobSpec(name="a", kind="noop")])
    plan = FaultPlan(seed=5, sites={"service.job": FaultSpec(fail_first=1)})
    with fault_plan(plan):
        worker = ServiceWorker(store, retry=FAST_RETRY)
        assert worker.drain() == 1
    job = store.jobs["demo.00000"]
    assert job.state is JobState.JOB_FINISHED
    assert job.attempts == 0
    assert [s for s, _ in job.history] == HAPPY_PATH
    assert plan.snapshot().get("service.job") == 1
    store.close()


def test_persistent_fault_requeues_then_dead_letters(tmp_path):
    store = make_store(
        tmp_path / "s", [JobSpec(name="a", kind="noop", max_requeues=1)]
    )
    plan = FaultPlan(seed=5, sites={"service.job": FaultSpec(probability=1.0)})
    with fault_plan(plan):
        worker = ServiceWorker(store, retry=FAST_RETRY)
        assert worker.drain() == 0
    job = store.jobs["demo.00000"]
    assert job.state is JobState.FAILED
    assert job.dead_lettered
    assert job.attempts == 2  # first visit + one requeue
    states = [s for s, _ in job.history]
    assert states.count("FAILED") == 2
    assert states.count("CREATED") == 2  # submit + requeue
    assert store.dead_letter.total == 1
    store.close()


def test_failing_payload_does_not_stop_campaign(tmp_path):
    store = make_store(
        tmp_path / "s",
        [
            JobSpec(name="bad", kind="fail", max_requeues=0),
            JobSpec(name="good", kind="noop"),
        ],
    )
    worker = ServiceWorker(store, retry=FAST_RETRY)
    assert worker.drain() == 1
    assert store.jobs["demo.00000"].dead_lettered
    assert store.jobs["demo.00001"].finished
    assert store.done
    store.close()


def test_drain_respects_job_ids_and_max_jobs(tmp_path):
    store = make_store(tmp_path / "s", [JobSpec(name=f"j{i}") for i in range(4)])
    worker = ServiceWorker(store, retry=FAST_RETRY)
    assert worker.drain(job_ids=["demo.00001", "demo.00003"]) == 2
    assert store.jobs["demo.00000"].pending
    assert store.jobs["demo.00001"].finished
    assert worker.drain(max_jobs=1) == 1
    assert store.jobs["demo.00000"].finished
    assert store.jobs["demo.00002"].pending
    store.close()


def _run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_hard_kill_then_resume_is_bit_identical(tmp_path):
    """The acceptance drill: a worker hard-killed mid-lifecycle
    (os._exit, no cleanup) leaves the store resumable, and the resumed
    campaign's fingerprint equals an uninterrupted run's."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)  # the drill is about crashes, not faults

    killed = tmp_path / "killed"
    clean = tmp_path / "clean"
    for root in (killed, clean):
        store = CampaignStore.create(root, seed=7)
        store.submit_campaign(
            "demo",
            [
                JobSpec(name=f"c{i}", kind="synthetic_centers",
                        params={"seed": 100 + i})
                for i in range(4)
            ],
            seed=3,
        )
        store.submit_campaign(
            "extra", [JobSpec(name="n0", kind="noop", params={"x": 1})]
        )
        store.close()

    # kill mid-lifecycle: 8 transitions = one finished job (6 edges) + two
    # edges into the second job (STAGED_IN, PREPROCESSED)
    proc = _run_cli(["work", str(killed), "--crash-after", "8"], env)
    assert proc.returncode == ServiceWorker.CRASH_EXIT_CODE, proc.stderr

    interrupted = CampaignStore.open(killed)
    stranded = [j.id for j in interrupted.jobs.values()
                if j.state not in (JobState.CREATED, JobState.JOB_FINISHED)]
    assert stranded  # the kill really landed mid-lifecycle
    interrupted.close()

    proc = _run_cli(["resume", str(killed)], env)
    assert proc.returncode == 0, proc.stderr

    proc = _run_cli(["work", str(clean)], env)
    assert proc.returncode == 0, proc.stderr

    a = CampaignStore.open(killed)
    b = CampaignStore.open(clean)
    assert a.done and b.done
    assert a.fingerprint() == b.fingerprint()
    # products are bit-identical too
    for jid in sorted(a.jobs):
        pa = os.path.join(a.products_dir, f"{jid}.json")
        pb = os.path.join(b.products_dir, f"{jid}.json")
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read(), jid
    a.close()
    b.close()


@pytest.mark.parametrize(
    "crash_after",
    [
        4,  # dies right after the first FAILED append, before the requeue
        15,  # dies after the second FAILED append, before the dead-letter
    ],
)
def test_hard_kill_on_failed_edge_resumes_bit_identical(tmp_path, crash_after):
    """The crash drill landing exactly on a FAILED transition: the job
    is stranded FAILED but neither requeued nor dead-lettered, and
    resume must finish the resolution the dead worker owed."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)

    killed = tmp_path / "killed"
    clean = tmp_path / "clean"
    specs = [
        JobSpec(name="bad", kind="fail", max_requeues=1),
        JobSpec(name="good", kind="noop", params={"x": 1}),
    ]
    for root in (killed, clean):
        store = CampaignStore.create(root, seed=7)
        store.submit_campaign("demo", specs, seed=3)
        store.close()

    # transition count: bad STAGED_IN(1)..FAILED(4) CREATED(5, requeue);
    # the requeued bad job re-enters pending on the *next* drain pass,
    # so good runs next, STAGED_IN(6)..JOB_FINISHED(11); then bad again,
    # STAGED_IN(12)..FAILED(15) + dead-letter (not a transition)
    proc = _run_cli(["work", str(killed), "--crash-after", str(crash_after)], env)
    assert proc.returncode == ServiceWorker.CRASH_EXIT_CODE, proc.stderr

    stranded = CampaignStore.open(killed)
    bad = stranded.jobs["demo.00000"]
    assert bad.state is JobState.FAILED and not bad.dead_lettered
    assert not stranded.done  # exactly the state recover() must resolve
    # the dead worker never got to account this failure: recovery climbs
    # the ladder for it, once, and says so
    with obs.telemetry(run_id="recover") as rec:
        stranded.recover()
    [failed] = [e for e in rec.events.snapshot() if e.name == "service.job_failed"]
    assert failed.fields["job"] == "demo.00000" and failed.fields["recovery"] is True
    assert failed.fields["attempts"] == bad.attempts
    assert stranded.done or bad.state is JobState.CREATED
    stranded.close()

    proc = _run_cli(["resume", str(killed)], env)
    assert proc.returncode == 1, proc.stderr  # dead letters present
    proc = _run_cli(["work", str(clean)], env)
    assert proc.returncode == 1, proc.stderr

    a = CampaignStore.open(killed)
    b = CampaignStore.open(clean)
    assert a.done and b.done
    assert a.jobs["demo.00000"].dead_lettered
    assert a.fingerprint() == b.fingerprint()
    a.close()
    b.close()


def test_in_process_crash_recover_resume(tmp_path):
    """Same drill without a subprocess: simulate the stranded state via
    direct transitions, then recover + drain."""
    store = make_store(tmp_path / "s", [JobSpec(name=f"j{i}") for i in range(3)])
    store.transition("demo.00000", JobState.STAGED_IN)
    store.transition("demo.00000", JobState.PREPROCESSED)
    store.transition("demo.00000", JobState.RUNNING)
    store.close()

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.recover() == ["demo.00000"]
    worker = ServiceWorker(reopened, retry=FAST_RETRY)
    assert worker.drain() == 3
    assert reopened.done
    reopened.close()


def test_recover_sweeps_product_temp_files_a_killed_worker_left(tmp_path):
    """A kill between ``_write_product``'s temp write and its ``os.replace``
    strands ``<id>.json.tmp.<pid>``; the next writer's recovery removes it,
    so ``products/`` holds exactly one file per job."""
    rec = obs.TelemetryRecorder(run_id="sweep")
    obs.set_recorder(rec)
    store = make_store(tmp_path / "s", [JobSpec(name=f"j{i}") for i in range(3)])
    store.submit_campaign("odd.tmp.1", [JobSpec(name="k")])  # a product that only looks like one
    assert ServiceWorker(store, retry=FAST_RETRY).drain(campaign="odd.tmp.1") == 1
    assert ServiceWorker(store, retry=FAST_RETRY).drain(max_jobs=1) == 1
    for state in HAPPY_PATH[1:5]:  # ... killed right after RUN_DONE
        store.transition("demo.00001", JobState(state), result={} if state == "RUN_DONE" else None)
    store.close()
    orphan = tmp_path / "s" / "products" / "demo.00001.json.tmp.4242"
    orphan.write_text('{"job": "demo.00001", "resu')

    reopened = CampaignStore.open(tmp_path / "s")
    assert reopened.recover() == ["demo.00001"]
    assert not orphan.exists()
    (event,) = [e for e in rec.events if e.name == "service.recovered"]
    assert event.fields["product_temps"] == 1 and event.fields["jobs"] == 1
    assert ServiceWorker(reopened, retry=FAST_RETRY).drain() == 2
    assert reopened.done
    assert sorted(os.listdir(reopened.products_dir)) == [f"{j}.json" for j in reopened.jobs]
    reopened.close()

    orphan.write_text("{")  # a readonly open never writes, so it never unlinks
    with CampaignStore.open(tmp_path / "s", readonly=True) as view:
        assert view.recover() == []
    assert orphan.exists()

