"""The campaign-service job lifecycle: an explicit, enforced state machine.

Balsam's job-packing service (see PAPERS.md and ``docs/service.md``)
moves every job through a fixed lifecycle; the repro campaign service
adopts the same states so a store can be audited against the paper's
off-line workflow hops::

    CREATED -> STAGED_IN -> PREPROCESSED -> RUNNING -> RUN_DONE
            -> POSTPROCESSED -> JOB_FINISHED

Every *active* state (anything between ``CREATED`` and the terminal
``JOB_FINISHED``) also has an edge to ``FAILED``; ``FAILED`` has exactly
one outgoing edge, the *requeue* (``FAILED -> CREATED``), taken while a
job still has requeue budget.  A job that exhausts its budget stays
``FAILED`` forever and is dead-lettered through
:class:`repro.faults.DeadLetterBox` — the same terminal-failure sink
the scheduler and exec engine use.

One more edge class exists only during **crash recovery**
(:meth:`repro.service.store.CampaignStore.recover`): a worker that died
mid-lifecycle leaves jobs stranded in an in-flight state, and the store
rolls them back to ``CREATED`` so a resumed worker re-derives the same
pending set an uninterrupted run would have processed.  Those
``<in-flight> -> CREATED`` rollbacks are *not* legal for normal
transitions — :func:`validate_transition` only admits them with
``recovery=True`` — so ordinary worker code can never silently rewind a
job.

Everything here is pure data + validation: no I/O, no clock, no
telemetry.  The durable record of each transition lives in
:mod:`repro.service.store`.
"""

from __future__ import annotations

from enum import Enum

__all__ = [
    "ACTIVE_STATES",
    "IN_FLIGHT_STATES",
    "JobState",
    "LEGAL_EDGES",
    "LEGAL_TRANSITIONS",
    "LIFECYCLE_ORDER",
    "RECOVERY_EDGES",
    "RECOVERY_TRANSITIONS",
    "TERMINAL_STATES",
    "IllegalTransition",
    "validate_transition",
]


class JobState(str, Enum):
    """One job's position in the service lifecycle."""

    CREATED = "CREATED"
    STAGED_IN = "STAGED_IN"
    PREPROCESSED = "PREPROCESSED"
    RUNNING = "RUNNING"
    RUN_DONE = "RUN_DONE"
    POSTPROCESSED = "POSTPROCESSED"
    JOB_FINISHED = "JOB_FINISHED"
    FAILED = "FAILED"

    def __str__(self) -> str:  # "RUNNING", not "JobState.RUNNING"
        return self.value


#: The happy path, in order (each state's successor is the next entry).
LIFECYCLE_ORDER: tuple[JobState, ...] = (
    JobState.CREATED,
    JobState.STAGED_IN,
    JobState.PREPROCESSED,
    JobState.RUNNING,
    JobState.RUN_DONE,
    JobState.POSTPROCESSED,
    JobState.JOB_FINISHED,
)

#: States a live worker moves jobs through (everything non-terminal).
ACTIVE_STATES: frozenset[JobState] = frozenset(LIFECYCLE_ORDER[:-1])

#: States that mean "a worker was mid-lifecycle here" — what crash
#: recovery rolls back to ``CREATED``.  ``CREATED`` itself is pending
#: (nothing to roll back) and ``FAILED`` keeps its requeue accounting.
IN_FLIGHT_STATES: frozenset[JobState] = frozenset(LIFECYCLE_ORDER[1:-1])

#: States with no outgoing edges for a job with exhausted requeues.
TERMINAL_STATES: frozenset[JobState] = frozenset({JobState.JOB_FINISHED})

#: The full legal-transition relation (source -> allowed destinations).
LEGAL_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    **{
        src: frozenset({dst, JobState.FAILED})
        for src, dst in zip(LIFECYCLE_ORDER[:-1], LIFECYCLE_ORDER[1:])
    },
    JobState.JOB_FINISHED: frozenset(),
    JobState.FAILED: frozenset({JobState.CREATED}),  # the requeue edge
}

#: Crash-recovery-only rollbacks (see the module docstring).
RECOVERY_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    src: frozenset({JobState.CREATED}) for src in IN_FLIGHT_STATES
}

#: Both relations as ``(src, dst)`` pairs, one set test per edge for
#: :func:`validate_transition` and the store's replay alike; ``recovery=True``
#: admits :data:`RECOVERY_EDGES` (the legal edges plus the rollbacks).
LEGAL_EDGES = frozenset((src, dst) for src, dsts in LEGAL_TRANSITIONS.items() for dst in dsts)
RECOVERY_EDGES = LEGAL_EDGES | {(src, JobState.CREATED) for src in RECOVERY_TRANSITIONS}


class IllegalTransition(ValueError):
    """A job was asked to move along an edge the lifecycle forbids."""

    def __init__(self, src: JobState, dst: JobState, job_id: str = "") -> None:
        subject = f"job {job_id!r}" if job_id else "job"
        super().__init__(
            f"illegal transition for {subject}: {src} -> {dst} "
            f"(legal from {src}: "
            f"{sorted(s.value for s in LEGAL_TRANSITIONS[src]) or 'none — terminal'})"
        )
        self.src = src
        self.dst = dst
        self.job_id = job_id


def validate_transition(
    src: JobState, dst: JobState, job_id: str = "", recovery: bool = False
) -> None:
    """Raise :class:`IllegalTransition` unless ``src -> dst`` is legal.

    ``recovery=True`` additionally admits the in-flight -> ``CREATED``
    rollbacks the store's crash recovery performs; nothing else.
    """
    if (src, dst) not in (RECOVERY_EDGES if recovery else LEGAL_EDGES):
        raise IllegalTransition(src, dst, job_id=job_id)
