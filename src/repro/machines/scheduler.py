"""Discrete-event batch scheduler for the simulated facilities.

Models the queueing behaviour the co-scheduled workflow depends on:
jobs request nodes and a duration, the machine runs as many as fit,
FIFO order with capacity and policy constraints — including Titan's
small-job rule ("the queue policy only allows two jobs that use less
than 125 nodes to run simultaneously"), which is why the paper's
multi-job co-scheduling needed a queue exemption on Titan but not on
the analysis clusters.

The simulation clock is event-driven: :meth:`Scheduler.run` advances to
each job completion and starts whatever newly fits.  Dependencies
(``after=``) express "queued after sim" orderings.

Failure model (see ``docs/failures.md``): a job's real ``payload`` runs
under a :class:`~repro.faults.RetryPolicy` at the
``"scheduler.payload"`` injection site, and jobs may carry a
``deadline`` — a wall-limit on the *simulated* duration; a job whose
``duration`` exceeds it is cut off at the deadline and counted as
failed (the batch-system wall-clock kill).  A failed job climbs the
shared failure ladder when its allocation ends:
:meth:`~repro.faults.DeadLetterBox.failed` accounts it and requeues it
up to ``max_requeues`` times (fresh ``submit_time`` = current sim clock,
FIFO order preserved); after that it lands in the scheduler's bounded
:class:`~repro.faults.DeadLetterBox` (:data:`~repro.faults.DEAD_LETTER_LIMIT`
retained entries, exact ``total``) and the run continues without it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from ..faults import DeadLetterBox, RetryPolicy, maybe_inject, resolve_retry
from ..obs import get_recorder
from .machine import MachineSpec

__all__ = ["Job", "Scheduler"]


@dataclass
class Job:
    """One batch job.

    ``submit_time`` is when the job enters the queue; ``after`` lists
    jobs that must *complete* before this one may start (the off-line
    workflow's "queued after sim" semantics).

    ``payload`` is an optional real callable executed when the job
    starts on the simulated machine — the hook the live co-scheduled
    workflow uses to run its actual analysis (e.g. an off-line center
    job on the :mod:`repro.exec` engine) at the moment the scheduler
    grants it nodes.  Its return value lands in ``result``.

    ``deadline`` caps the *simulated* runtime (the batch wall limit): a
    job whose ``duration`` exceeds it ends at ``start + deadline`` and
    counts as failed.  A failed job (deadline or payload failure) is
    requeued up to ``max_requeues`` times, then dead-lettered.
    """

    name: str
    n_nodes: int
    duration: float
    submit_time: float = 0.0
    after: list["Job"] = field(default_factory=list)
    payload: Callable[[], Any] | None = None
    deadline: float | None = None
    max_requeues: int = 0

    # filled by the scheduler
    start_time: float | None = None
    end_time: float | None = None
    result: Any = None
    attempts: int = 0
    failed: bool = False
    error: str | None = None

    @property
    def queue_wait(self) -> float:
        """Seconds spent waiting after submission (and dependencies)."""
        if self.start_time is None:
            raise RuntimeError(f"job {self.name!r} has not been scheduled")
        ready = max([self.submit_time, *(d.end_time or 0.0 for d in self.after)])
        return self.start_time - ready

    @property
    def done(self) -> bool:
        return self.end_time is not None


class Scheduler:
    """Event-driven FIFO scheduler with capacity + policy constraints.

    Parameters
    ----------
    machine:
        The simulated machine (nodes + queue policy).
    payload_retry:
        :class:`~repro.faults.RetryPolicy` for each job's real payload
        (``None`` → the tree-wide default of 3 attempts).  Pass
        ``RetryPolicy(max_attempts=1)`` to disable retrying.
    """

    def __init__(self, machine: MachineSpec, payload_retry: RetryPolicy | None = None):
        self.machine = machine
        self.jobs: list[Job] = []
        self.payload_retry = resolve_retry(payload_retry)
        self.dead_letter = DeadLetterBox("scheduler")
        self._counter = itertools.count()

    def _run_payload(self, job: Job) -> Any:
        """One payload attempt (the unit the retry policy repeats)."""
        maybe_inject("scheduler.payload", key=job.name)
        assert job.payload is not None
        return job.payload()

    def submit(self, job: Job) -> Job:
        """Queue a job (validated against machine size)."""
        if job.n_nodes < 1:
            raise ValueError("jobs need at least one node")
        if job.n_nodes > self.machine.n_nodes:
            raise ValueError(
                f"job {job.name!r} wants {job.n_nodes} nodes; "
                f"{self.machine.name} has {self.machine.n_nodes}"
            )
        if job.duration < 0:
            raise ValueError("duration must be non-negative")
        self.jobs.append(job)
        return job

    def run(self) -> float:
        """Schedule all submitted jobs; returns the makespan (last end time).

        FIFO by (ready time, submission order): a job blocked by
        capacity or policy also blocks later jobs from jumping ahead
        (conservative, no backfill — matching the paper-era schedulers
        "generally inadequate for the needs of in-transit workflows").
        """
        rec = get_recorder()
        # journaled machine geometry: MachineTimeline.from_events rebuilds
        # the per-node Gantt from run_begin + job_start records alone
        rec.event(
            "scheduler.run_begin",
            machine=self.machine.name,
            n_nodes=self.machine.n_nodes,
            jobs=len(self.jobs),
        )
        # sorted() is stable: equal submit times keep submission order
        pending = sorted(self.jobs, key=lambda j: j.submit_time)
        running: list[tuple[float, int, Job]] = []  # (end_time, tiebreak, job)
        free = self.machine.n_nodes
        clock = 0.0
        small_cap = None
        policy = self.machine.queue
        makespan = 0.0

        def small_running() -> int:
            return sum(
                1
                for _, _, j in running
                if policy.small_job_nodes is not None and j.n_nodes < policy.small_job_nodes
            )

        while pending or running:
            progressed = True
            while progressed:
                progressed = False
                for job in list(pending):
                    if job.submit_time > clock:
                        continue
                    if any(not d.done or d.end_time > clock for d in job.after):
                        continue
                    if job.n_nodes > free:
                        break  # FIFO: don't let later jobs jump the queue
                    small_cap = policy.max_concurrent_small(job.n_nodes)
                    if small_cap is not None and small_running() >= small_cap:
                        continue  # policy-blocked; later (bigger) jobs may pass
                    job.attempts += 1
                    job.failed = False
                    job.error = None
                    sim_duration = job.duration
                    if job.deadline is not None and sim_duration > job.deadline:
                        # batch wall-clock kill: the job is cut off at the
                        # deadline and counted as failed
                        sim_duration = job.deadline
                        job.failed = True
                        job.error = (
                            f"deadline: duration {job.duration} exceeds "
                            f"wall limit {job.deadline}"
                        )
                    job.start_time = clock
                    job.end_time = clock + sim_duration
                    makespan = max(makespan, job.end_time)
                    free -= job.n_nodes
                    heapq.heappush(running, (job.end_time, next(self._counter), job))
                    pending.remove(job)
                    progressed = True
                    # sim-clock telemetry: queue waits are the co-scheduling
                    # quantity the paper's policy discussion turns on
                    rec.event(
                        "scheduler.job_start",
                        job=job.name,
                        machine=self.machine.name,
                        n_nodes=job.n_nodes,
                        sim_start=job.start_time,
                        sim_end=job.end_time,
                        queue_wait=job.queue_wait,
                    )
                    if job.payload is not None and not job.failed:
                        # execute the attached real work at grant time,
                        # under the payload retry policy (with
                        # "scheduler.payload" fault injection per attempt)
                        with rec.span(
                            "scheduler.job_exec", job=job.name, n_nodes=job.n_nodes
                        ):
                            outcome, job.error = self.payload_retry.attempt(
                                self._run_payload, job, site="scheduler.payload", key=job.name
                            )
                        if outcome is None:
                            # reported as scheduler.job_failed when the
                            # job's simulated allocation ends
                            job.failed = True
                        else:
                            job.result = outcome.value
                            rec.counter("scheduler_payloads_executed_total").inc()
            if running:
                end, _, job = heapq.heappop(running)
                clock = max(clock, end)
                free += job.n_nodes
                if job.failed:
                    self._resolve_failure(job, pending, clock)
            elif pending:
                # nothing running: advance to the next relevant instant
                candidates = [j.submit_time for j in pending if j.submit_time > clock]
                dep_ends = [
                    d.end_time
                    for j in pending
                    for d in j.after
                    if d.end_time is not None and d.end_time > clock
                ]
                times = candidates + dep_ends
                if not times:
                    stuck = [j.name for j in pending]
                    rec.event("scheduler.deadlock", level="error", jobs=stuck)
                    raise RuntimeError(
                        f"scheduler deadlock: jobs {stuck} can never start "
                        "(unsatisfied dependencies or capacity)"
                    )
                clock = min(times)
        rec.event(
            "scheduler.done",
            machine=self.machine.name,
            n_nodes=self.machine.n_nodes,
            jobs=len(self.jobs),
            makespan=makespan,
            dead_lettered=self.dead_letter.total,
        )
        return makespan

    def allocations(self) -> list[tuple[str, int, float, float]]:
        """Completed allocations as ``(name, n_nodes, start, end)`` tuples.

        The input for :class:`repro.obs.timeline.MachineTimeline` — the
        per-node occupancy Gantt behind the paper's Table 3.
        """
        return [
            (j.name, j.n_nodes, j.start_time, j.end_time)
            for j in self.jobs
            if j.start_time is not None and j.end_time is not None
        ]

    def _resolve_failure(self, job: Job, pending: list[Job], clock: float) -> None:
        """Requeue a failed job, or dead-letter it when requeues run out."""
        error = job.error or "failed"
        if self.dead_letter.failed(job.name, job.attempts, job.max_requeues, error, sim_time=clock):
            # fresh submission at the current sim clock; appending keeps
            # FIFO order (everything already pending was submitted earlier)
            job.submit_time = clock
            job.start_time = None
            job.end_time = None
            pending.append(job)
        else:
            self.dead_letter.add(job.name, error, attempts=job.attempts, sim_time=clock)
