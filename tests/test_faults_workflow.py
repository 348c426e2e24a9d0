"""The failure model end-to-end: degradation, determinism, dead-letter.

Acceptance contracts from docs/failures.md:

* a permanently failing off-line leg degrades the combined run instead
  of killing it (``degraded=True``, catalog == the in-situ-only leg) —
  on either Level 2 hand-off, spool directory or staging area, with the
  same ladder accounting;
* the same FaultPlan seed reproduces the same faults, retry counts,
  dead-letter contents and final catalog hashes (``check_determinism``);
* scheduler deadlines requeue and then dead-letter; exec poison items
  are quarantined while every other halo completes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.check import check_determinism, output_hash
from repro.core import run_combined_workflow
from repro.exec import ExecutionEngine, WorkerError, parallel_halo_centers
from repro.faults import (
    DeadLetterBox,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    fault_plan,
    set_fault_plan,
)
from repro.machines import QueuePolicy, Scheduler, StagingArea
from repro.machines.scheduler import Job
from repro.sim import SimulationConfig
from tests.oracles.centers_reference import halo_centers_reference

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig(
        np_per_dim=20, box=36.0, z_initial=24.0, z_final=0.0, n_steps=12, ng=40
    )


def _run(config, spool, plan, retry=None, coschedule=True):
    with fault_plan(plan):
        return run_combined_workflow(
            config,
            spool,
            threshold=150,
            min_count=30,
            n_ranks=4,
            coschedule=coschedule,
            retry=retry,
        )


def _handoffs(tmp_path, name):
    """The two Level 2 hand-offs the driver takes as its spool argument."""
    return {"spool": tmp_path / name, "staging": StagingArea()}


@pytest.fixture(scope="module")
def clean_run(small_config, tmp_path_factory):
    spool = tmp_path_factory.mktemp("spool_clean")
    with fault_plan(None):
        return run_combined_workflow(
            small_config, spool, threshold=150, min_count=30, n_ranks=4, coschedule=True
        )


# -- graceful degradation ------------------------------------------------------


def test_transient_faults_do_not_change_the_science(small_config, tmp_path, clean_run):
    """fail_first=1 on every submit: the shared retry policy absorbs it
    and the merged catalog is bit-identical to the clean run."""
    for handoff in _handoffs(tmp_path, "transient").values():
        plan = FaultPlan(seed=7, sites={"listener.submit": FaultSpec(fail_first=1)})
        result = _run(small_config, handoff, plan)
        assert not result.degraded
        assert result.listener_stats.submit_retries >= 1
        assert result.listener_stats.jobs_failed == 0
        assert np.array_equal(result.catalog.records, clean_run.catalog.records)


def test_permanent_offline_outage_degrades_instead_of_raising(
    small_config, tmp_path, clean_run
):
    """FaultSpec(always=True) at offline.job: the run completes, flags
    degraded=True, records one FailureRecord per missing snapshot, and
    the Level 3 catalog equals the in-situ-only leg — on both hand-offs,
    whose failures the listener's ladder accounts identically."""
    outcomes = {}
    for kind, handoff in _handoffs(tmp_path, "outage").items():
        plan = FaultPlan(seed=7, sites={"offline.job": FaultSpec(always=True)})
        with obs.telemetry(run_id=f"outage-{kind}") as rec:
            result = _run(small_config, handoff, plan)
        _check_degraded(result, clean_run)
        # the dead-lettered product stays where the writer left it
        left = handoff.names() if kind == "staging" else sorted(os.listdir(handoff))
        assert left == [os.path.basename(p) for p in result.level2_paths]
        triple = tuple(
            rec.metrics.counter(f"listener_{what}_total").value
            for what in ("jobs_failed", "requeues", "dead_letter")
        )
        outcomes[kind] = (triple, [f.key for f in result.failures])
    assert outcomes["spool"] == outcomes["staging"] == ((1, 0, 1), ["12"])


def _check_degraded(result, clean_run):
    assert result.degraded
    assert len(result.offline_catalog) == 0
    assert len(result.failures) == len(result.level2_paths) >= 1
    for failure in result.failures:
        assert failure.stage == "offline"
        assert failure.as_dict()["attempts"] >= 1
        # straight from the listener's dead-letter box: the real error the
        # last attempt raised, and every attempt the (default) policy allowed
        assert "FaultInjected" in failure.reason and "offline.job" in failure.reason
        assert failure.attempts == RetryPolicy().max_attempts
    steps = [int(p.rsplit("step", 1)[1].split(".")[0]) for p in result.level2_paths]
    assert [failure.key for failure in result.failures] == [str(s) for s in steps]
    assert result.listener_stats.jobs_failed == len(result.failures)
    assert np.array_equal(
        result.catalog.records, result.insitu_catalog.sorted_by_tag().records
    )
    # the giants the clean run recovered off-line are exactly what's missing
    assert len(clean_run.catalog) - len(result.catalog) == len(
        clean_run.offline_catalog
    )


def test_clean_run_is_not_degraded(clean_run):
    assert not clean_run.degraded
    assert clean_run.failures == []


# -- determinism ---------------------------------------------------------------


def test_same_fault_seed_reproduces_run_bit_for_bit(small_config, tmp_path_factory):
    """Same FaultPlan seed ⇒ identical injected faults, retry counts and
    catalog hashes (the run-twice harness from repro.check)."""
    plans = []

    def campaign():
        plan = FaultPlan(
            seed=21,
            sites={
                "listener.submit": FaultSpec(probability=0.5),
                "io.read": FaultSpec(fail_first=1),
            },
        )
        plans.append(plan)
        spool = tmp_path_factory.mktemp("spool_det")
        result = _run(small_config, spool, plan, coschedule=False)
        return {
            "catalog": result.catalog.records,
            "injected": plan.snapshot(),
            "retries": result.listener_stats.submit_retries,
            "failed": result.listener_stats.jobs_failed,
            "degraded": result.degraded,
        }

    report = check_determinism(campaign, runs=2)
    assert report.ok
    assert plans[0].snapshot() == plans[1].snapshot()
    assert plans[0].total_injected > 0  # the faults actually fired


# -- scheduler deadlines, requeue, dead-letter ---------------------------------


def _toy_machine(nodes=4):
    from repro.machines import MachineSpec

    return MachineSpec(
        name="toy",
        n_nodes=nodes,
        cores_per_node=1,
        charge_factor=1.0,
        has_gpu=False,
        queue=QueuePolicy(),
    )


def test_deadline_breach_requeues_then_dead_letters():
    sched = Scheduler(_toy_machine())
    doomed = sched.submit(
        Job(name="wall-kill", n_nodes=1, duration=10.0, deadline=4.0, max_requeues=2)
    )
    ok = sched.submit(Job(name="fine", n_nodes=1, duration=3.0))
    makespan = sched.run()
    # 3 attempts (initial + 2 requeues), each cut off at the deadline
    assert doomed.attempts == 3
    assert doomed.failed
    assert "deadline" in (doomed.error or "")
    assert makespan == pytest.approx(3 * 4.0)
    assert ok.done and not ok.failed
    assert sched.dead_letter.total == 1
    [entry] = sched.dead_letter.entries()
    assert entry.key == "wall-kill"
    assert entry.attempts == 3


def test_payload_fault_is_retried_at_grant_time():
    plan = FaultPlan(seed=0, sites={"scheduler.payload": FaultSpec(fail_first=1)})
    ran = []
    sched = Scheduler(
        _toy_machine(), payload_retry=RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    sched.submit(Job(name="analysis", n_nodes=1, duration=1.0, payload=lambda: ran.append(1)))
    with fault_plan(plan):
        sched.run()
    assert ran == [1]  # succeeded on the retry
    assert sched.dead_letter.total == 0
    assert plan.total_injected == 1


def test_payload_permanent_failure_dead_letters_and_run_continues():
    plan = FaultPlan(seed=0, sites={"scheduler.payload": FaultSpec(always=True)})
    sched = Scheduler(
        _toy_machine(), payload_retry=RetryPolicy(max_attempts=2, base_delay=0.0)
    )
    bad = sched.submit(Job(name="cursed", n_nodes=1, duration=1.0, payload=lambda: 1))
    ok = sched.submit(Job(name="fine", n_nodes=1, duration=1.0))
    with fault_plan(plan):
        sched.run()
    assert bad.failed
    assert ok.done and not ok.failed
    assert sched.dead_letter.keys() == ["cursed"]


def test_dead_letter_box_is_bounded_with_exact_total():
    box = DeadLetterBox("scheduler", limit=4)
    for i in range(10):
        box.add(f"job{i}", "boom")
    assert len(box) == 4
    assert box.total == 10
    assert box.keys() == ["job6", "job7", "job8", "job9"]  # most recent window


# -- exec engine: poison quarantine --------------------------------------------


@pytest.fixture(scope="module")
def tiny_catalog():
    rng = np.random.default_rng(8)
    pos_list, labels_list = [], []
    for i, size in enumerate([120, 80, 60, 50]):
        c = rng.uniform(10, 90, 3)
        pos_list.append(c + rng.normal(0, 1.0, (size, 3)))
        labels_list.append(np.full(size, i * 10, dtype=np.int64))
    pos = np.concatenate(pos_list)
    labels = np.concatenate(labels_list)
    tags = np.arange(len(pos), dtype=np.uint64)
    return pos, tags, labels


def test_exec_default_contract_worker_crashes(tiny_catalog):
    """item_retries=0 (the default): an injected item fault crashes the
    worker and the run raises WorkerError — the historical contract."""
    pos, tags, labels = tiny_catalog
    plan = FaultPlan(seed=0, sites={"exec.item": FaultSpec(always=True)})
    eng = ExecutionEngine(workers=2)
    with fault_plan(plan), pytest.raises(WorkerError):
        parallel_halo_centers(pos, tags, labels, engine=eng)


def test_exec_default_contract_inline_fault_propagates(tiny_catalog):
    """``exec.item`` is every per-halo work item, in-situ batches included:
    on an inline (one-worker) run with item_retries=0 the injected fault
    itself propagates to the caller — no worker, so no WorkerError."""
    from repro.analysis import halo_centers

    pos, tags, labels = tiny_catalog
    plan = FaultPlan(seed=0, sites={"exec.item": FaultSpec(always=True)})
    with fault_plan(plan), pytest.raises(FaultInjected):
        halo_centers(pos, tags, labels)


def test_exec_transient_item_fault_recovers(tiny_catalog):
    pos, tags, labels = tiny_catalog
    ref = halo_centers_reference(pos, tags, labels)
    for workers in (1, 2):  # inline and pooled: the same item-level ladder
        plan = FaultPlan(seed=0, sites={"exec.item": FaultSpec(fail_first=1)})
        eng = ExecutionEngine(workers=workers, item_retries=2)
        with fault_plan(plan):
            res = parallel_halo_centers(pos, tags, labels, engine=eng)
        assert res.exec_report.item_failures >= 1
        assert res.exec_report.recovered_items >= 1
        assert res.exec_report.poisoned == []
        assert eng.dead_letter.total == 0
        assert np.array_equal(ref.mbp_tags, res.mbp_tags)
        assert np.array_equal(ref.potentials, res.potentials)


def test_exec_poison_quarantine_excludes_only_the_poisoned_halos(tiny_catalog):
    pos, tags, labels = tiny_catalog
    ref = halo_centers_reference(pos, tags, labels)
    for workers in (1, 2):
        plan = FaultPlan(seed=0, sites={"exec.item": FaultSpec(always=True, keys=("0",))})
        eng = ExecutionEngine(workers=workers, item_retries=1)
        with fault_plan(plan):
            res = parallel_halo_centers(pos, tags, labels, engine=eng)
        assert res.exec_report.poisoned  # the poisoned item is quarantined…
        assert eng.dead_letter.total == len(res.exec_report.poisoned)
        assert len(res.halo_tags) >= 1  # …while the other halos completed
        assert len(res.halo_tags) < 4
        kept = np.isin(ref.halo_tags, res.halo_tags)
        assert np.array_equal(ref.mbp_tags[kept], res.mbp_tags)
        assert np.array_equal(ref.potentials[kept], res.potentials)
