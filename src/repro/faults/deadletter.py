"""Bounded dead-letter lists for work that exhausted its retries.

The failure ladder's upper rungs (rung 1 is
:meth:`repro.faults.RetryPolicy.attempt`): :meth:`DeadLetterBox.failed`
accounts a failure and decides requeue-or-not, :meth:`DeadLetterBox.add`
is the terminal sink — jobs the scheduler or the campaign service gave
up on, poison work items the exec engine quarantined, off-line steps the
listener abandoned (which the combined driver reports as a degraded
run).  Every producer uses the same bounded :class:`DeadLetterBox`, so
queue growth is capped the same way
:data:`repro.machines.listener.BACKLOG_HISTORY_LIMIT` already caps the
listener's backlog history: the *entries* window is a deque of the most
recent :data:`DEAD_LETTER_LIMIT` records, while the running ``total``
covers the whole run — accounting stays exact after old entries age
out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["DEAD_LETTER_LIMIT", "DeadLetterBox", "DeadLetterEntry"]

#: Cap on retained dead-letter entries per box (long co-scheduling
#: campaigns run forever; an unbounded failure list is a leak).  The
#: ``total`` counter keeps the exact whole-run count regardless.
DEAD_LETTER_LIMIT = 256


@dataclass(frozen=True)
class DeadLetterEntry:
    """One terminally-failed unit of work."""

    source: str  # "scheduler" | "service" | "listener" | "exec"
    key: str  # job name / item id / step
    reason: str
    attempts: int = 1
    sim_time: float | None = None
    #: run id of the workflow that dead-lettered this entry (stamped
    #: from the active recorder, so two runs sharing one box stay apart)
    run: str | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "source": self.source,
            "key": self.key,
            "reason": self.reason,
            "attempts": self.attempts,
        }
        if self.sim_time is not None:
            out["sim_time"] = self.sim_time
        if self.run is not None:
            out["run"] = self.run
        out.update(self.fields)
        return out


class DeadLetterBox:
    """Bounded FIFO of :class:`DeadLetterEntry` with exact totals.

    ``entries()`` exposes the most recent :attr:`limit` records;
    :attr:`total` counts every record ever added (the watermark the
    ``*_dead_letter_total`` counters mirror).
    """

    def __init__(self, source: str, limit: int = DEAD_LETTER_LIMIT) -> None:
        self.source = source
        self.limit = int(limit)
        self._entries: deque[DeadLetterEntry] = deque(maxlen=self.limit)
        self.total = 0

    def failed(self, key: Any, attempts: int, budget: int, reason: str, **fields: Any) -> bool:
        """Rung 2 of the failure ladder: account one failure, decide requeue.

        ``attempts`` is how often the unit has failed, ``budget`` how
        many requeues it may spend (``0``: the site has no requeue rung);
        this is the only place the two are compared.  ``True``: requeue,
        in the caller's own medium (a sim-clock resubmission, a journaled
        ``FAILED -> CREATED``); ``False``: climb to rung 3, :meth:`add`.
        Emits ``<source>_jobs_failed_total`` / ``<source>.job_failed``
        either way, ``<source>_requeues_total`` / ``<source>.job_requeued``
        on ``True``; the box itself is not touched.
        """
        from ..obs import get_recorder

        rec = get_recorder()
        fields["job"] = str(key)
        rec.counter(f"{self.source}_jobs_failed_total").inc()
        rec.event(
            f"{self.source}.job_failed", level="error", attempts=attempts, error=reason, **fields
        )
        requeue = attempts <= budget
        if requeue:
            rec.counter(f"{self.source}_requeues_total").inc()
            rec.event(f"{self.source}.job_requeued", level="warning", attempt=attempts, **fields)
        return requeue

    def add(
        self,
        key: Any,
        reason: str,
        attempts: int = 1,
        sim_time: float | None = None,
        **fields: Any,
    ) -> DeadLetterEntry:
        """Record a terminal failure; emits counters + an error event."""
        from ..obs import get_recorder

        rec = get_recorder()
        entry = DeadLetterEntry(
            source=self.source,
            key=str(key),
            reason=reason,
            attempts=attempts,
            sim_time=sim_time,
            run=rec.run_id,
            fields=fields,
        )
        self._entries.append(entry)
        self.total += 1
        rec.counter(
            "dead_letter_total", help="work units that exhausted retries (all sources)"
        ).inc()
        rec.counter(f"{self.source}_dead_letter_total").inc()
        rec.event(
            "dead_letter",
            level="error",
            source=self.source,
            key=entry.key,
            reason=reason,
            attempts=attempts,
        )
        return entry

    def entries(self, run: str | None = None) -> list[DeadLetterEntry]:
        """The retained (most recent) entries, oldest first.

        ``run`` filters to one workflow's failures when several runs
        share the box (e.g. two drivers over one engine).
        """
        if run is None:
            return list(self._entries)
        return [e for e in self._entries if e.run == run]

    def keys(self) -> list[str]:
        return [e.key for e in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return self.total > 0
