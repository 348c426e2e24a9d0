"""Persistent worker-process pool for the execution engine.

Forking workers per batch would pay the fork + warm-up + import cost
once per analysis step, dozens of times in a campaign.
:class:`WorkerPool` keeps them alive between batches.  The workers are
the members of one :class:`~repro.exec.supervisor.ProcessGroup` (lane
``exec-worker``), which forks, watches, aborts and reaps them; the pool
adds what a persistent worker needs on top: a job queue per worker
(tiny payloads: the shared-memory spec, the work items, the task and
the job's :class:`~repro.exec.supervisor.MemberContext`), the
work-stealing cursor (inherited at fork, reset before each job with the
group's abort event), and job-id tagging, so a straggler message from
an aborted job can never corrupt the next one.

A worker that ships an ``error`` message survives to take the next job
(the engine still raises :class:`~repro.exec.engine.WorkerError`); a
worker that dies, or a job that times out, makes the engine close the
pool and fork a fresh one.  Reuse is counted in
``exec_pool_reuse_total``; the workers are daemons with an ``atexit``
backstop, so an abandoned pool never outlives the interpreter.
"""

from __future__ import annotations

import atexit
import time
import traceback
from typing import TYPE_CHECKING, Any

from ..faults import maybe_inject
from .sharedmem import SharedParticleStore
from .supervisor import MemberContext, ProcessGroup

if TYPE_CHECKING:
    from .workqueue import WorkItem

__all__ = ["WorkerPool"]


def _pool_worker_main(
    worker_id: int,
    job_q: Any,  # multiprocessing Queue from the group
    result_q: Any,  # the group's result queue
    cursor: Any,  # multiprocessing.Value("l") — inherited, reset per job
    abort: Any,  # the group's abort event — inherited, cleared per job
) -> None:
    """Worker loop: take one job at a time until the ``None`` sentinel."""
    # lazy import: the runner registry lives in engine.py, which imports
    # this module
    from .engine import _TASK_RUNNERS

    while True:
        job = job_q.get()
        if job is None:
            break
        job_id, spec, items, seed_ids, pool_ids, task, hop, catch_item_errors = job
        hop.install()
        store = SharedParticleStore.attach(spec)
        runner = _TASK_RUNNERS[task["task"]]
        cache: dict[int, Any] = {}
        busy = 0.0
        steals = 0
        t_prev = time.perf_counter()
        try:

            def run_one(item_id: int, stolen: bool) -> None:
                nonlocal busy, t_prev
                item: WorkItem = items[item_id]
                t0 = time.perf_counter()
                overhead = t0 - t_prev
                try:
                    maybe_inject("exec.item", item_id)
                    payload = runner(item, store, task, cache)
                except Exception:
                    if not catch_item_errors:
                        raise
                    t1 = time.perf_counter()
                    busy += t1 - t0
                    t_prev = t1
                    result_q.put(
                        ("item_error", job_id, worker_id, item_id, traceback.format_exc())
                    )
                    return
                t1 = time.perf_counter()
                busy += t1 - t0
                t_prev = t1
                result_q.put(
                    ("ok", job_id, worker_id, item_id, payload, t0, t1, overhead, stolen)
                )

            for item_id in seed_ids:
                if abort.is_set():
                    break
                run_one(item_id, stolen=False)
            while not abort.is_set():
                with cursor.get_lock():
                    nxt = cursor.value
                    if nxt >= len(pool_ids):
                        break
                    cursor.value = nxt + 1
                steals += 1
                run_one(pool_ids[nxt], stolen=True)
            result_q.put(("done", job_id, worker_id, busy, steals, hop.snapshot()))
        except BaseException:  # repro: noqa[RPR006] - traceback is shipped to
            # the parent over result_q, which raises WorkerError (crash
            # isolation); the worker itself survives to take the next job.
            result_q.put(("error", job_id, worker_id, traceback.format_exc()))
        finally:
            store.close()


class WorkerPool:
    """A reusable set of worker processes fed through job queues.

    One dispatcher thread drives one job at a time: :meth:`submit`, then
    drain :attr:`group` (:meth:`ProcessGroup.drain
    <repro.exec.supervisor.ProcessGroup.drain>`) until every
    participating worker reported ``done``/``error``.  The engine owns
    the lifecycle: it borrows the pool through ``_acquire_pool`` and
    returns it through ``_release_pool``
    (:func:`repro.exec.shutdown_pool` closes the shared one).
    """

    def __init__(self, n_workers: int) -> None:
        self.group = group = ProcessGroup("exec-worker", n_workers)
        self.n_workers = group.size
        self._cursor: Any = group.ctx.Value("l", 0)
        self._job_qs = [group.queue() for _ in range(self.n_workers)]
        self._job_seq = 0
        group.start(
            _pool_worker_main,
            lambda w: (w, self._job_qs[w], group.results, self._cursor, group.abort_event),
        )
        # backstop: an abandoned pool must not outlive the interpreter
        # (the processes are daemons, but a clean join avoids noise)
        atexit.register(self.close)

    @property
    def alive(self) -> bool:
        """Usable for another job: not closed, every worker up."""
        return self.group.alive

    def submit(
        self,
        n_workers: int,
        spec: dict[str, tuple[str, tuple[int, ...], str]],
        items: "list[WorkItem]",
        seeds: list[list[int]],
        pool_ids: list[int],
        task: dict[str, Any],
        hop: MemberContext,
        catch_item_errors: bool,
    ) -> int:
        """Dispatch one job to the first ``n_workers`` workers.

        Returns the job id that every result message for this job will
        carry.  The caller must drain the job to completion (or close
        the pool) before submitting the next one.
        """
        if not self.alive:
            raise RuntimeError("worker pool is not usable")
        if n_workers > self.n_workers:
            raise ValueError(f"job needs {n_workers} workers, pool has {self.n_workers}")
        job_id = self._job_seq
        self._job_seq += 1
        # reset the inherited primitives: no worker holds a job right now
        self.group.abort_event.clear()
        with self._cursor.get_lock():
            self._cursor.value = 0
        for w in range(n_workers):
            self._job_qs[w].put(
                (job_id, spec, items, seeds[w], pool_ids, task, hop, catch_item_errors)
            )
        return job_id

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        if self.group.closed:
            return
        atexit.unregister(self.close)
        for q in self._job_qs:
            try:
                q.put_nowait(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        self.group.close()
