"""One supervisor for forked child processes: :class:`ProcessGroup`.

The exec engine's persistent worker pool (:mod:`repro.exec.pool`) and
the process SPMD transport (:mod:`repro.parallel.transport`) both run
their children as the members of a group, which owns what they share:
the ``fork`` context (rank programs are closures), ``size`` daemon
members named ``<lane>-<i>``, the child bootstrap
(:class:`MemberContext`: a fresh fault plan, a local recorder, the
telemetry snapshot shipped back and folded into the parent trace on the
``<lane>-<i>`` tracks), one result drain with a liveness check every
poll step, abort and a timeout budget, and teardown.

Fork safety: ``multiprocessing.resource_tracker`` has no fork handling.
A child forked while another thread holds the tracker's lock (inside
``SharedMemory(create=True)``, say) inherits it held and blocks for ever
at its first shared-memory call.  The ``os.register_at_fork`` hooks
below hold the lock across every fork in the process and give the child
a fresh one.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker
from typing import Any, Callable, Iterable, Mapping

from ..faults import FaultPlan, get_fault_plan, set_fault_plan
from ..obs import NullRecorder, TelemetryRecorder, get_recorder, set_recorder
from ..obs.context import export_snapshot, merge_snapshot

__all__ = ["MemberContext", "ProcessGroup"]

#: Seconds between liveness checks while :meth:`ProcessGroup.drain` waits.
POLL_STEP = 0.2

#: Seconds teardown waits for a member to exit before terminating it.
JOIN_TIMEOUT = 5.0


# -- fork hooks ------------------------------------------------------------------


def _tracker_lock() -> Any:
    return getattr(getattr(resource_tracker, "_resource_tracker", None), "_lock", None)


def _hold_tracker_lock() -> None:
    if (lock := _tracker_lock()) is not None:
        lock.acquire()


def _release_tracker_lock() -> None:
    if (lock := _tracker_lock()) is not None:
        lock.release()


def _fresh_tracker_lock() -> None:
    if _tracker_lock() is not None:
        resource_tracker._resource_tracker._lock = threading.RLock()  # type: ignore[attr-defined]


os.register_at_fork(
    before=_hold_tracker_lock,
    after_in_parent=_release_tracker_lock,
    after_in_child=_fresh_tracker_lock,
)


# -- the per-job hop ---------------------------------------------------------------


@dataclass(frozen=True)
class MemberContext:
    """What a member inherits for one job: the fault plan and trace hop.

    Captured on the parent's dispatching thread, installed in the
    member, used again by the parent to fold the telemetry back.
    """

    plan: dict[str, Any] | None
    trace: dict[str, Any] | None

    @classmethod
    def capture(cls) -> "MemberContext":
        """The calling thread's fault plan and trace context."""
        plan = get_fault_plan()
        ctx = get_recorder().trace_context()
        return cls(
            plan.to_dict() if plan is not None else None,
            ctx.to_dict() if ctx is not None else None,
        )

    def install(self) -> None:
        """Member side: a fresh plan copy (deterministic attempt counters)
        and a local recorder for :meth:`snapshot`."""
        set_fault_plan(FaultPlan.from_dict(self.plan) if self.plan is not None else None)
        if self.trace is None:
            set_recorder(NullRecorder())
        else:
            set_recorder(TelemetryRecorder(run_id=self.trace.get("run"), capacity=4096))

    def snapshot(self) -> dict[str, Any] | None:
        """Member side: the local recorder's telemetry, ready to ship."""
        rec = get_recorder()
        return export_snapshot(rec) if isinstance(rec, TelemetryRecorder) else None

    def fold(self, snapshots: Mapping[int, dict[str, Any] | None], lane: str) -> None:
        """Parent side: merge snapshots in member order (identical runs,
        identical journals) under the span open at :meth:`capture`."""
        rec = get_recorder()
        if self.trace is None or not isinstance(rec, TelemetryRecorder):
            return
        for m in sorted(snapshots):
            merge_snapshot(
                rec, snapshots[m], parent_span_id=self.trace.get("span_id"), thread=f"{lane}-{m}"
            )


# -- the group ---------------------------------------------------------------------


class ProcessGroup:
    """``size`` forked daemon members, one result queue, one abort event.

    Build the members' primitives from :attr:`ctx` (queues through
    :meth:`queue`, so teardown closes them), then :meth:`start`.
    :attr:`abort_hooks` run on every :meth:`abort`, after the event is
    set: a caller that parks members in its own primitive (a barrier)
    registers the call that releases them.
    """

    def __init__(self, lane: str, size: int) -> None:
        if size < 1:
            raise ValueError(f"a process group needs at least one member, got {size}")
        self.lane = lane
        self.size = int(size)
        self.ctx: Any = get_context("fork")
        self._queues: list[Any] = []
        self._procs: list[Any] = []
        self.results: Any = self.queue()
        self.abort_event: Any = self.ctx.Event()
        self.abort_hooks: list[Callable[[], None]] = []
        self.closed = False

    def queue(self) -> Any:
        """A queue the members inherit at fork; :meth:`close` closes it."""
        q = self.ctx.Queue()
        self._queues.append(q)
        return q

    def start(self, target: Callable[..., None], args: Callable[[int], tuple[Any, ...]]) -> None:
        """Fork the members: member ``m`` runs ``target(*args(m))``."""
        # members must inherit the parent's tracker: one that starts its
        # own unlinks the member's in-flight segments the moment it exits
        resource_tracker.ensure_running()
        for m in range(self.size):
            p = self.ctx.Process(
                target=target, args=args(m), name=f"{self.lane}-{m}", daemon=True
            )
            self._procs.append(p)
            p.start()

    @property
    def alive(self) -> bool:
        """Not closed, and every member is running."""
        return not self.closed and all(p.is_alive() for p in self._procs)

    def abort(self) -> None:
        """Set the abort event and run the abort hooks."""
        self.abort_event.set()
        for hook in self.abort_hooks:
            with contextlib.suppress(OSError, ValueError):  # primitive torn down
                hook()

    def drain(
        self,
        members: Iterable[int],
        on_message: Callable[[Any], int | None],
        timeout: float,
    ) -> tuple[dict[int, int], list[int]]:
        """Feed result messages to ``on_message`` until ``members`` finish.

        ``on_message`` returns the member a message finishes, or
        ``None``.  Each poll step without a message checks liveness: a
        member that exited with nothing left in the queue is dead, and
        the group is aborted.  After ``timeout`` seconds without a
        message (counted in poll steps; no clock is read) the group is
        aborted and the drain gives up.  Returns ``(dead, stuck)``:
        dead members with their exit codes, and the members still
        running when the timeout ran out.
        """
        pending = set(members)
        dead: dict[int, int] = {}
        silent = 0.0

        def take(msg: Any) -> None:
            done = on_message(msg)
            if done is not None:
                pending.discard(done)

        while pending:
            try:
                take(self.results.get(timeout=POLL_STEP))
                continue
            except queue.Empty:
                silent += POLL_STEP
            exited = [m for m in sorted(pending) if not self._procs[m].is_alive()]
            if exited:
                # a member's last message is in the pipe before it exits:
                # read what is queued before calling anyone dead
                with contextlib.suppress(queue.Empty):
                    while True:
                        take(self.results.get_nowait())
                for m in exited:
                    if m in pending:
                        pending.discard(m)
                        code = self._procs[m].exitcode
                        dead[m] = -1 if code is None else int(code)
                if dead:
                    self.abort()
            if pending and silent >= timeout:
                self.abort()
                return dead, sorted(pending)
        return dead, []

    def stop(self) -> None:
        """Abort, then join every member (terminating stragglers)."""
        self.abort()
        for p in self._procs:
            p.join(timeout=JOIN_TIMEOUT)
        for p in self._procs:
            if p.is_alive():  # pragma: no cover - stuck member
                p.terminate()
                p.join(timeout=JOIN_TIMEOUT)

    def close(self) -> None:
        """:meth:`stop`, then close every queue (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.stop()
        for q in self._queues:
            with contextlib.suppress(OSError, ValueError):
                q.close()
