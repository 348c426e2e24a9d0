"""One failure ladder, checked across the sites that climb it.

retry in place (``RetryPolicy.attempt``) -> requeue while a budget lasts
(``DeadLetterBox.failed``) -> dead-letter and carry on
(``DeadLetterBox.add``): the same fault schedule at the scheduler, the
campaign service, the listener and the exec engine must be decided and
accounted the same way, and the report must see every source without a
hand-kept list (docs/failures.md, "The ladder").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.exec import ExecutionEngine, parallel_halo_centers
from repro.faults import DeadLetterBox, FaultPlan, FaultSpec, RetryPolicy, fault_plan
from repro.machines import Listener, MachineSpec, QueuePolicy, Scheduler
from repro.machines.scheduler import Job
from repro.obs.report import RunTelemetry, failure_label
from repro.service.store import CampaignStore, JobSpec
from repro.service.worker import ServiceWorker

ATTEMPTS = 3  # one try + two retries in place, at every site
RETRY = RetryPolicy(max_attempts=ATTEMPTS, base_delay=0.0, max_delay=0.0)


# -- rung 2 in isolation ---------------------------------------------------------


@given(
    attempts=st.integers(1, 6),
    budget=st.integers(0, 5),
    source=st.sampled_from(["scheduler", "service", "listener", "exec", "elsewhere"]),
)
def test_failed_is_the_one_budget_decision(attempts, budget, source):
    box = DeadLetterBox(source)
    with obs.telemetry(run_id="rung2") as rec:
        requeue = box.failed("unit", attempts, budget, "Boom: it broke", where="here")
    assert requeue == (attempts <= budget)
    events = rec.events.snapshot()
    [failed] = [e for e in events if e.name == f"{source}.job_failed"]
    assert failed.level == "error"
    assert failed.fields == {
        "job": "unit", "attempts": attempts, "error": "Boom: it broke", "where": "here"
    }  # fmt: skip
    assert [e.name for e in events if e is not failed] == (
        [f"{source}.job_requeued"] if requeue else []
    )
    assert rec.metrics.counter(f"{source}_jobs_failed_total").value == 1
    assert rec.metrics.counter(f"{source}_requeues_total").value == int(requeue)
    # deciding is not dead-lettering: rung 3 stays the caller's explicit add()
    assert box.total == 0 and box.entries() == [] and not box


# -- the same schedule at every site -----------------------------------------------


def _toy_machine():
    return MachineSpec(
        name="toy", n_nodes=4, cores_per_node=1, charge_factor=1.0, has_gpu=False,
        queue=QueuePolicy(),
    )  # fmt: skip


def _halos():
    rng = np.random.default_rng(8)
    sizes = [120, 80, 60, 50]
    pos = np.concatenate([rng.uniform(10, 90, 3) + rng.normal(0, 1.0, (n, 3)) for n in sizes])
    labels = np.concatenate([np.full(n, 10 * i, dtype=np.int64) for i, n in enumerate(sizes)])
    return pos, np.arange(len(pos), dtype=np.uint64), labels


def _scheduler_unit(tmp_path, budget):
    sched = Scheduler(_toy_machine(), payload_retry=RETRY)
    sched.submit(Job(name="unit", n_nodes=1, duration=1.0, payload=lambda: 1, max_requeues=budget))
    sched.run()


def _service_unit(tmp_path, budget):
    with CampaignStore.create(tmp_path / "store") as store:
        store.submit_campaign("c", [JobSpec(name="unit", max_requeues=budget)])
        ServiceWorker(store, retry=RETRY).drain()


def _listener_unit(tmp_path, budget):
    (tmp_path / "l2_step0003.gio").write_bytes(b"x")
    Listener(tmp_path, "l2_step*.gio", lambda *a: None, retry=RETRY).poll_once()


def _exec_unit(tmp_path, budget):
    engine = ExecutionEngine(workers=1, item_retries=ATTEMPTS - 1)
    parallel_halo_centers(*_halos(), engine=engine)


#: site, box source, one unit of work, the unit's fault key (() = any),
#: whether the first try itself runs under the RetryPolicy (the exec
#: engine's runs in the batch loop; only its retries are ``retry.attempt``)
SITES = [
    pytest.param("scheduler.payload", "scheduler", _scheduler_unit, (), True, id="scheduler"),
    pytest.param("service.job", "service", _service_unit, (), True, id="service"),
    pytest.param("listener.submit", "listener", _listener_unit, (), True, id="listener"),
    pytest.param("exec.item", "exec", _exec_unit, ("0",), False, id="exec"),
]


def _climb(tmp_path, site, unit, spec, budget=0):
    with obs.telemetry(run_id=site) as rec, fault_plan(FaultPlan(seed=0, sites={site: spec})):
        unit(tmp_path, budget)
    attempts = [s for s in rec.tracer.snapshot() if s.name == "retry.attempt"]
    assert attempts and all(s.fields["site"] == site for s in attempts)
    return rec, attempts


def _triple(rec, source):
    return tuple(
        rec.metrics.counter(f"{source}_{what}_total").value
        for what in ("jobs_failed", "requeues", "dead_letter")
    )


@pytest.mark.parametrize("site,source,unit,keys,first_try_spanned", SITES)
def test_transient_schedule_stops_at_rung_one(tmp_path, site, source, unit, keys, first_try_spanned):
    """fail_first=2 under 1 + 2 attempts: absorbed in place, nothing accounted
    as failed, and each of the two retries is a ``retry.attempt`` span."""
    rec, attempts = _climb(tmp_path, site, unit, FaultSpec(fail_first=2, keys=keys))
    assert _triple(rec, source) == (0, 0, 0)
    assert len(attempts) - int(first_try_spanned) == 2
    assert rec.metrics.counter("retry_exhausted_total").value == 0


@pytest.mark.parametrize("site,source,unit,keys,first_try_spanned", SITES)
def test_permanent_schedule_without_budget_is_one_failure_one_dead_letter(
    tmp_path, site, source, unit, keys, first_try_spanned
):
    rec, attempts = _climb(tmp_path, site, unit, FaultSpec(always=True, keys=keys))
    assert _triple(rec, source) == (1, 0, 1)
    assert len(attempts) - int(first_try_spanned) == ATTEMPTS - 1
    assert rec.metrics.counter("retry_exhausted_total").value == 1
    assert rec.metrics.counter("dead_letter_total").value == 1
    [dead] = [e for e in rec.events.snapshot() if e.name == "dead_letter"]
    assert dead.fields["source"] == source and "FaultInjected" in dead.fields["reason"]


@pytest.mark.parametrize("site,source,unit,keys,first_try_spanned", SITES[:2])
def test_permanent_schedule_spends_the_requeue_budget_first(
    tmp_path, site, source, unit, keys, first_try_spanned
):
    """The two sites with a requeue rung: budget 2 -> three failures, two
    requeues, then one dead letter — the same triple from both."""
    rec, attempts = _climb(tmp_path, site, unit, FaultSpec(always=True), budget=2)
    assert _triple(rec, source) == (3, 2, 1)
    assert len(attempts) == 3 * ATTEMPTS


# -- the report derives its rows from the scheme --------------------------------------


def test_failure_labels_follow_the_scheme_not_a_list():
    assert failure_label("retries_total") == "retries"
    assert failure_label("dead_letter") == "dead-lettered"
    assert failure_label("exec_jobs_failed_total") == "exec jobs failed"
    assert failure_label("listener.job_failed") == "listener jobs failed"
    assert failure_label("anything_requeues_total") == "anything requeues"
    assert failure_label("service.job_requeued") == "service requeues"
    assert failure_label("exec_dead_letter_total") == "exec dead-lettered"
    for name in ("exec_runs_total", "service.transition", "_jobs_failed_total", ".job_failed"):
        assert failure_label(name) is None


def test_failures_by_run_see_every_source(tmp_path):
    """Two runs on one recorder — one poisons an exec item, one dead-letters
    a service job: each run's table shows its own source's rows (the exec
    rows were invisible while the event table named ``exec.item_error``)."""
    with obs.telemetry() as rec:
        with rec.run_scope("exec-run"):
            plan = FaultPlan(seed=0, sites={"exec.item": FaultSpec(always=True, keys=("0",))})
            with fault_plan(plan):
                parallel_halo_centers(*_halos(), engine=ExecutionEngine(workers=1, item_retries=1))
        with rec.run_scope("service-run"), fault_plan(None):
            with CampaignStore.create(tmp_path / "store") as store:
                store.submit_campaign("c", [JobSpec(name="bad", kind="fail", max_requeues=1)])
                ServiceWorker(store, retry=RETRY).drain()
        report = RunTelemetry.from_recorder(rec)
    by_run = report.failure_stats_by_run()
    assert by_run["exec-run"] == {
        "faults injected": 2,
        "retries exhausted": 1,
        "exec jobs failed": 1,
        "dead-lettered": 1,
        "exec dead-lettered": 1,
    }
    assert by_run["service-run"] == {
        "retries": 2 * (ATTEMPTS - 1),
        "retries exhausted": 2,
        "service jobs failed": 2,
        "service requeues": 1,
        "dead-lettered": 1,
        "service dead-lettered": 1,
    }
    # counters are process-global, but keyed by metric name for machines
    stats = report.failure_stats()
    assert stats["exec_jobs_failed_total"] == 1 and stats["service_jobs_failed_total"] == 2
    assert list(stats)[:2] == ["faults_injected_total", "retries_total"]
    table = report.failure_table(by_run=False)
    assert "exec dead-lettered" in table and "service requeues" in table
