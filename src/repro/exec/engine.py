"""Work-stealing execution engine for per-halo analysis.

This is the intra-node executor under the workflow layer: the paper
schedules *where* per-halo analysis runs (in-situ vs off-line, which
cluster), and this engine decides *how* a batch of per-halo kernels
fills the cores of whatever node it landed on — one of them inline, or
several through a pool of worker processes.

Design (see :mod:`repro.exec.workqueue` for the scheduling policy):

* particle arrays live in :class:`~repro.exec.sharedmem.SharedParticleStore`
  segments — workers attach zero-copy views, nothing bulky is pickled;
* the :class:`~repro.exec.workqueue.HaloWorkQueue` pre-sorts work items
  longest-processing-time-first using the ``n(n-1)`` cost model, splits
  giant halos into row slabs, and packs small halos into amortized
  chunks; the head items seed one worker each and idle workers steal
  the tail through an atomic cursor;
* results return as tiny tuples (indices + scalars for centers; pickled
  :class:`~repro.analysis.subhalos.SubhaloResult` for subhalos) and are
  reassembled in deterministic halo order.  This is the **one path** a
  batch of per-halo kernels takes — the item runners below are the only
  callers of ``mbp_center_*`` / ``find_subhalos`` in ``src/`` — so the
  worker count is a width, not a choice of code: one worker runs the
  same items inline on the calling thread (no fork, no shared-memory
  segment), and output is bit-identical for any count (the independent
  per-halo loop it is checked against lives in ``tests/oracles``);
* a crashing worker is isolated: its traceback is shipped back, the
  remaining workers drain at the next item boundary, and the engine
  raises :class:`WorkerError` instead of hanging;
* with ``item_retries > 0`` the failure unit shrinks from worker to
  *item*: a failing item (including an injected ``"exec.item"`` fault
  from the active :class:`~repro.faults.FaultPlan`) is shipped back as
  an item error, retried inline by the parent under the shared failure
  ladder (:meth:`~repro.faults.RetryPolicy.attempt`, no requeue rung)
  and — after exhausting its retries — *poisoned*: quarantined in the
  engine's bounded :class:`~repro.faults.DeadLetterBox` and excluded
  from the output, while every other item completes normally (see
  ``docs/failures.md``);
* everything is instrumented through :mod:`repro.obs`: per-worker item
  spans land in the Chrome trace on ``exec-worker-N`` tracks (on the
  calling thread's own track for an inline run), the
  ``exec_load_imbalance_ratio`` gauge reports max/mean worker busy time
  (the paper's Figure 4 metric), ``exec_steals_total`` counts tail
  steals, and each ``exec.item`` span carries its dispatch ``overhead``
  (the gap since its worker's previous item ended).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol

import numpy as np

from ..analysis.centers import (
    DEFAULT_SOFTENING,
    CenterStats,
    HaloCentersResult,
    _phi_blocked,
    group_halo_members,
    mbp_center_astar,
    mbp_center_bruteforce,
)
from ..faults import DeadLetterBox, RetryPolicy, maybe_inject
from ..obs import NullRecorder, TelemetryRecorder, get_recorder
from .pool import WorkerPool
from .sharedmem import SharedParticleStore
from .supervisor import MemberContext
from .workqueue import HaloWorkQueue, WorkItem

__all__ = [
    "ExecReport",
    "ExecutionEngine",
    "ItemRecord",
    "SubhaloBatchResult",
    "WorkerError",
    "default_workers",
    "parallel_halo_centers",
    "parallel_subhalos",
    "shutdown_pool",
]


def default_workers() -> int:
    """The CPUs this process may run on (its affinity mask, not the machine's count).

    The one CPU-width function: the exec pool's default size, the
    streaming FOF's link width and the PM's default thread count.
    """
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # pragma: no cover - non-Linux
        return max(os.cpu_count() or 1, 1)


class WorkerError(RuntimeError):
    """A worker process failed; carries the remote traceback."""

    def __init__(
        self, message: str, worker_id: int | None = None, remote_traceback: str = ""
    ) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback


@dataclass
class ItemRecord:
    """Per-item execution record (feeds the Chrome-trace worker tracks)."""

    worker: int
    kind: str
    n_halos: int
    cost: int
    t0: float
    t1: float
    overhead: float  # seconds between previous item end and kernel start
    stolen: bool

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class ExecReport:
    """What one engine run did — the load-balance evidence.

    ``imbalance`` is max/mean worker busy time, the quantity behind the
    paper's Figure 4 ("the imbalance between the fastest and the
    slowest node is a factor of 15" in §4.2).
    """

    workers: int
    n_items: int
    n_halos: int
    n_split_halos: int
    wall_seconds: float
    worker_busy: list[float] = field(default_factory=list)
    steals: list[int] = field(default_factory=list)
    imbalance: float = 1.0
    total_cost: int = 0
    item_log: list[ItemRecord] = field(default_factory=list)
    halo_seconds: dict[int, float] = field(default_factory=dict)
    #: item attempts that failed (before retry resolution)
    item_failures: int = 0
    #: items that succeeded on an inline retry after a worker-side failure
    recovered_items: int = 0
    #: item ids quarantined after exhausting ``item_retries`` — their
    #: halos are excluded from the reassembled output
    poisoned: list[int] = field(default_factory=list)

    @property
    def total_steals(self) -> int:
        return int(sum(self.steals))

    @property
    def busy_fraction(self) -> float:
        """Aggregate worker utilization (busy time / workers x wall)."""
        if self.wall_seconds <= 0 or not self.worker_busy:
            return 1.0
        return sum(self.worker_busy) / (self.workers * self.wall_seconds)


# ---------------------------------------------------------------------------
# task runners (executed inside workers; registered by name so spawn-based
# contexts can resolve them after re-import)
# ---------------------------------------------------------------------------


class ParticleArrays(Protocol):
    """Structural type shared by :class:`SharedParticleStore` and the
    inline dict-of-arrays store: field name -> particle array."""

    def __getitem__(self, field: str) -> np.ndarray: ...


def _members_of(store: ParticleArrays, h: int) -> np.ndarray:
    starts = store["starts"]
    return store["members"][int(starts[h]) : int(starts[h + 1])]


def _run_centers_item(
    item: WorkItem,
    store: ParticleArrays,
    task: Mapping[str, Any],
    cache: dict[int, np.ndarray],
) -> list[tuple[Any, ...]]:
    """Center finding: whole halos or a row slab of a giant halo."""
    pos = store["pos"]
    mass = task["mass"]
    softening = task["softening"]
    method = task["method"]
    out: list[tuple[Any, ...]] = []
    if item.kind == "slab":
        h = item.halo_indices[0]
        hpos = cache.get(h)
        if hpos is None:
            cache.clear()  # keep at most one gathered giant halo resident
            hpos = pos[_members_of(store, h)]
            cache[h] = hpos
        n = len(hpos)
        phi = _phi_blocked(hpos, item.row_start, item.row_end, mass, softening)
        b = int(np.argmin(phi))
        out.append(
            (
                "slab",
                h,
                item.row_start + b,
                float(phi[b]),
                item.row_end - item.row_start,
                (item.row_end - item.row_start) * (n - 1),
            )
        )
        return out
    for h in item.halo_indices:
        hpos = pos[_members_of(store, h)]
        if method == "astar":
            idx, phi, stats = mbp_center_astar(hpos, mass=mass, softening=softening)
        else:
            idx, phi, stats = mbp_center_bruteforce(hpos, mass=mass, softening=softening)
        out.append(
            (
                "halo",
                h,
                idx,
                phi,
                stats.n_particles,
                stats.pair_evaluations,
                stats.exact_potentials,
            )
        )
    return out


def _run_subhalos_item(
    item: WorkItem,
    store: ParticleArrays,
    task: Mapping[str, Any],
    cache: dict[int, np.ndarray],
) -> list[tuple[Any, ...]]:
    """Subhalo decomposition of whole parent halos (never split)."""
    from ..analysis.subhalos import find_subhalos

    pos = store["pos"]
    vel = store["vel"]
    box = task.get("box")
    vel_scale = task.get("vel_scale", 1.0)
    out: list[tuple[Any, ...]] = []
    for h in item.halo_indices:
        m = _members_of(store, h)
        t0 = time.perf_counter()
        hpos = pos[m].copy()
        if box:
            # halo-local frame: unwrap periodic coordinates about the first
            # member so distances are physical
            hpos -= box * np.round((hpos - hpos[0]) / box)
        hvel = vel[m] * vel_scale
        res = find_subhalos(
            hpos,
            hvel,
            mass=task["mass"],
            g_constant=task["g_constant"],
            k_density=task.get("k_density", 32),
            n_link=task.get("n_link", 2),
            min_size=task.get("min_size", 20),
            unbind=task.get("unbind", True),
            softening=task.get("softening", 1e-5),
        )
        out.append(("subhalo", h, res, time.perf_counter() - t0))
    return out


def _run_explode_item(
    item: WorkItem,
    store: ParticleArrays,
    task: Mapping[str, Any],
    cache: dict[int, np.ndarray],
) -> list[tuple[Any, ...]]:
    """Crash-isolation test hook: always raises inside the worker."""
    raise RuntimeError(task.get("message", "exec test worker explosion"))


_TASK_RUNNERS: dict[str, Callable[..., list[tuple[Any, ...]]]] = {
    "centers": _run_centers_item,
    "subhalos": _run_subhalos_item,
    "explode": _run_explode_item,
}


# ---------------------------------------------------------------------------
# the shared worker pool
# ---------------------------------------------------------------------------
#
# One long-lived WorkerPool (see repro.exec.pool) is shared by every
# engine in the process, so a campaign that runs the engine once per
# analysis step pays the fork + warm-up cost once, not per step.  The
# pool runs one job at a time; a second engine running concurrently on
# another thread (e.g. the pipelined in-situ chain next to an off-line
# job) gets a private ephemeral pool instead of blocking.

_SHARED_POOL: WorkerPool | None = None
_SHARED_POOL_LOCK = threading.Lock()


def _acquire_pool(n_workers: int) -> tuple[WorkerPool, bool, bool]:
    """Borrow the shared pool (or build one). Returns (pool, shared, reused).

    ``shared=True`` means the caller holds ``_SHARED_POOL_LOCK`` and must
    release it through :func:`_release_pool`; ``reused=True`` means an
    existing pool's workers take this job (no forks).
    """
    global _SHARED_POOL
    if _SHARED_POOL_LOCK.acquire(blocking=False):
        pool = _SHARED_POOL
        if pool is not None and pool.alive and pool.n_workers >= n_workers:
            return pool, True, True
        if pool is not None:
            pool.close()
        _SHARED_POOL = WorkerPool(n_workers)
        return _SHARED_POOL, True, False
    # the shared pool is busy on another thread: private one-job pool
    return WorkerPool(n_workers), False, False


def _release_pool(pool: WorkerPool, shared: bool, broken: bool) -> None:
    """Return a pool borrowed via :func:`_acquire_pool`.

    A broken pool (a worker died, or the job timed out) is closed, so
    the next :func:`_acquire_pool` replaces it; a private pool always is.
    """
    try:
        if broken or not shared:
            pool.close()
    finally:
        if shared:
            _SHARED_POOL_LOCK.release()


def shutdown_pool() -> None:
    """Tear down the process-wide shared worker pool (safe to call anytime).

    The pool also has its own ``atexit`` backstop; call this explicitly
    to reclaim the worker processes early (tests do).
    """
    global _SHARED_POOL
    with _SHARED_POOL_LOCK:
        if _SHARED_POOL is not None:
            _SHARED_POOL.close()
            _SHARED_POOL = None


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class ExecutionEngine:
    """Work-stealing executor for per-halo batches, at any width.

    Parameters
    ----------
    workers:
        Width of a run (default: cores available to this process).  One
        worker — or a queue of one item — runs inline on the calling
        thread; more fan out over pooled worker processes.
    split_factor, chunk_factor, min_split_rows:
        Scheduling knobs forwarded to :meth:`HaloWorkQueue.build`.
    result_timeout:
        Seconds without any worker result before the run fails — the
        no-hang guarantee for a stuck worker (one killed outright is
        caught within a poll step).
    item_retries:
        ``0`` (default) keeps the historical contract: any failing item
        crashes its worker and the run raises :class:`WorkerError` (an
        inline run re-raises the item's own exception).
        ``N > 0`` shrinks the failure unit to the *item*: a failing
        item is retried inline up to ``N`` times and then poisoned
        (quarantined in :attr:`dead_letter`, excluded from the output)
        while the rest of the batch completes.
    """

    def __init__(
        self,
        workers: int | None = None,
        split_factor: float = 2.0,
        chunk_factor: float = 16.0,
        min_split_rows: int = 256,
        result_timeout: float = 600.0,
        item_retries: int = 0,
    ) -> None:
        self.workers = int(workers) if workers else default_workers()
        self.split_factor = split_factor
        self.chunk_factor = chunk_factor
        self.min_split_rows = min_split_rows
        self.result_timeout = result_timeout
        if item_retries < 0:
            raise ValueError("item_retries must be >= 0")
        self.item_retries = int(item_retries)
        #: poison quarantine: items that exhausted their retries
        self.dead_letter = DeadLetterBox("exec")

    # -- public API -----------------------------------------------------------

    def build_queue(
        self,
        counts: np.ndarray,
        cost_model: Callable[[np.ndarray], np.ndarray] | None = None,
        splittable: bool = True,
    ) -> HaloWorkQueue:
        return HaloWorkQueue.build(
            counts,
            workers=self.workers,
            cost_model=cost_model,
            splittable=splittable,
            split_factor=self.split_factor,
            chunk_factor=self.chunk_factor,
            min_split_rows=self.min_split_rows,
        )

    def run(
        self,
        arrays: Mapping[str, np.ndarray],
        work: HaloWorkQueue,
        task: dict[str, Any],
    ) -> tuple[list[tuple[int, list[tuple[Any, ...]]]], ExecReport]:
        """Execute a work queue; returns ``(item payloads, report)``.

        ``arrays`` must contain the shared inputs the task runner needs
        (always ``members``/``starts`` plus e.g. ``pos``).  Payload
        order is undefined (workers race); callers reassemble by halo
        index, which is what makes results scheduling-independent.
        """
        rec = get_recorder()
        n_workers = max(1, min(self.workers, max(len(work.items), 1)))
        n_halos = int(len(arrays["starts"]) - 1) if "starts" in arrays else 0
        with rec.span(
            "exec.run",
            task=task.get("task"),
            workers=n_workers,
            items=len(work.items),
            halos=n_halos,
        ):
            t_wall0 = time.perf_counter()
            if n_workers == 1 or len(work.items) == 0:
                payloads, report = self._run_inline(arrays, work, task)
            else:
                payloads, report = self._run_processes(arrays, work, task, n_workers)
            report.wall_seconds = time.perf_counter() - t_wall0
            report.n_halos = n_halos
            self._record_telemetry(rec, report, task)
        return payloads, report

    # -- inline (single worker, no processes) ---------------------------------

    def _run_inline(
        self, arrays: Mapping[str, np.ndarray], work: HaloWorkQueue, task: dict[str, Any]
    ) -> tuple[list[tuple[int, list[tuple[Any, ...]]]], ExecReport]:
        runner = _TASK_RUNNERS[task["task"]]
        store = _InlineStore(arrays)
        cache: dict[int, np.ndarray] = {}
        payloads: list[tuple[int, list[tuple[Any, ...]]]] = []
        log: list[ItemRecord] = []
        failed_items: list[int] = []
        busy = 0.0
        order = [i for ids in work.seeds for i in ids] + list(work.pool)
        t_prev = time.perf_counter()
        for item_id in order:
            item = work.items[item_id]
            t0 = time.perf_counter()
            try:
                maybe_inject("exec.item", item_id)
                payloads.append((item_id, runner(item, store, task, cache)))
            except Exception:
                if self.item_retries == 0:
                    raise  # historical contract: inline failures propagate
                failed_items.append(item_id)
            t1 = time.perf_counter()
            log.append(
                ItemRecord(0, item.kind, item.n_halos, item.cost, t0, t1, t0 - t_prev, False)
            )
            busy += t1 - t0
            t_prev = t1
        recovered, poisoned = self._retry_failed_items(
            failed_items, arrays, work, task, payloads
        )
        return payloads, ExecReport(
            workers=1,
            n_items=len(work.items),
            n_halos=0,
            n_split_halos=work.n_split_halos,
            wall_seconds=0.0,
            worker_busy=[busy],
            steals=[0],
            imbalance=1.0,
            total_cost=work.total_cost,
            item_log=log,
            item_failures=len(failed_items),
            recovered_items=recovered,
            poisoned=poisoned,
        )

    # -- multi-process path ---------------------------------------------------

    def _run_processes(
        self,
        arrays: Mapping[str, np.ndarray],
        work: HaloWorkQueue,
        task: dict[str, Any],
        n_workers: int,
    ) -> tuple[list[tuple[int, list[tuple[Any, ...]]]], ExecReport]:
        rec = get_recorder()
        store = SharedParticleStore.create(**arrays)
        error: WorkerError | None = None
        payloads: list[tuple[int, list[tuple[Any, ...]]]] = []
        log: list[ItemRecord] = []
        busy = [0.0] * n_workers
        steals = [0] * n_workers
        failed_items: list[int] = []
        # fault plan + trace context for the workers: run() holds the
        # exec.run span open on this thread, so worker telemetry comes
        # back causally parented under the caller's trace
        hop = MemberContext.capture()
        snaps: dict[int, dict[str, Any] | None] = {}
        wpool, shared, reused = _acquire_pool(n_workers)
        if reused:
            rec.counter(
                "exec_pool_reuse_total",
                help="engine runs served by an already-warm worker pool",
            ).inc()
        broken = True  # until the job drains cleanly
        try:
            # re-balance seeds onto the actual worker count
            seeds: list[list[int]] = [[] for _ in range(n_workers)]
            flat_seeds = [i for ids in work.seeds for i in ids]
            pool = list(work.pool)
            for rank, item_id in enumerate(flat_seeds):
                if rank < n_workers:
                    seeds[rank].append(item_id)
                else:
                    pool.insert(rank - n_workers, item_id)
            job_id = wpool.submit(
                n_workers, store.spec, work.items, seeds, pool, task, hop, self.item_retries > 0
            )

            def on_message(msg: tuple[Any, ...]) -> int | None:
                nonlocal error
                if msg[1] != job_id:
                    # straggler from an earlier aborted job on a reused
                    # pool: job-id tagging makes it harmless
                    return None
                if msg[0] == "ok":
                    _, _, w, item_id, payload, t0, t1, overhead, stolen = msg
                    payloads.append((item_id, payload))
                    item = work.items[item_id]
                    log.append(
                        ItemRecord(w, item.kind, item.n_halos, item.cost, t0, t1, overhead, stolen)
                    )
                    return None
                if msg[0] == "item_error":
                    failed_items.append(msg[3])  # item id; retried by the parent below
                    return None
                if msg[0] == "done":
                    _, _, w, wbusy, wsteals, snap = msg
                    busy[w] = wbusy
                    steals[w] = wsteals
                    snaps[w] = snap
                    return int(w)
                # "error": the worker shipped the traceback and survives
                # for the next job; the batch still fails loudly
                _, _, w, tb = msg
                wpool.group.abort()
                if error is None:
                    last = tb.strip().splitlines()[-1] if tb.strip() else "unknown"
                    error = WorkerError(
                        f"worker {w} failed: {last}", worker_id=w, remote_traceback=tb
                    )
                return int(w)

            dead, stuck = wpool.group.drain(range(n_workers), on_message, self.result_timeout)
            broken = bool(dead or stuck)
            if dead and error is None:
                w, code = min(dead.items())
                error = WorkerError(
                    f"worker {w} died without reporting (exitcode {code})", worker_id=w
                )
            if stuck and error is None:
                error = WorkerError(
                    f"timed out after {self.result_timeout:.0f}s waiting for workers {stuck}"
                )
        finally:
            _release_pool(wpool, shared, broken)
            store.unlink()
        # worker root spans/events hang under the open exec.run span
        hop.fold(snaps, "exec-worker")
        if error is not None:
            raise error

        recovered, poisoned = self._retry_failed_items(
            failed_items, arrays, work, task, payloads
        )

        nonzero = [b for b in busy if b > 0]
        mean_busy = float(np.mean(busy)) if busy else 0.0
        imbalance = (max(busy) / mean_busy) if nonzero and mean_busy > 0 else 1.0
        return payloads, ExecReport(
            workers=n_workers,
            n_items=len(work.items),
            n_halos=0,
            n_split_halos=work.n_split_halos,
            wall_seconds=0.0,
            worker_busy=busy,
            steals=steals,
            imbalance=imbalance,
            total_cost=work.total_cost,
            item_log=log,
            item_failures=len(failed_items),
            recovered_items=recovered,
            poisoned=poisoned,
        )

    def _retry_failed_items(
        self,
        failed_items: list[int],
        arrays: Mapping[str, np.ndarray],
        work: HaloWorkQueue,
        task: dict[str, Any],
        payloads: list[tuple[int, list[tuple[Any, ...]]]],
    ) -> tuple[int, list[int]]:
        """Retry worker-failed items inline; poison the unrecoverable.

        Returns ``(recovered_count, poisoned_item_ids)``.  The shared
        failure ladder without backoff or a requeue rung: each
        ``retry.attempt`` re-runs the ``"exec.item"`` injection site
        against the *parent's* fault plan, so a ``fail_first`` schedule
        that killed the worker attempt is absorbed here
        deterministically; an item that exhausts them is dead-lettered.
        """
        if not failed_items:
            return 0, []
        runner = _TASK_RUNNERS[task["task"]]
        store = _InlineStore(arrays)
        retry = RetryPolicy(max_attempts=self.item_retries, base_delay=0.0, max_delay=0.0)
        attempts = 1 + self.item_retries
        recovered = 0
        poisoned: list[int] = []

        def attempt(item_id: int) -> list[tuple[Any, ...]]:
            maybe_inject("exec.item", item_id)
            return runner(work.items[item_id], store, task, {})

        for item_id in sorted(failed_items):
            item = work.items[item_id]
            outcome, error = retry.attempt(attempt, item_id, site="exec.item", key=item_id)
            if outcome is not None:
                payloads.append((item_id, outcome.value))
                recovered += 1
                continue
            assert error is not None  # attempt() hands back exactly one of the pair
            self.dead_letter.failed(item_id, attempts, 0, error)
            poisoned.append(item_id)
            self.dead_letter.add(
                item_id, error, attempts=attempts, kind=item.kind, n_halos=item.n_halos
            )
        return recovered, poisoned

    # -- telemetry ------------------------------------------------------------

    def _record_telemetry(
        self,
        rec: NullRecorder | TelemetryRecorder,
        report: ExecReport,
        task: dict[str, Any],
    ) -> None:
        rec.gauge(
            "exec_load_imbalance_ratio",
            help="max/mean worker busy seconds for the last engine run (Figure 4 metric)",
        ).set(report.imbalance)
        rec.gauge("exec_workers").set(report.workers)
        rec.counter("exec_runs_total").inc()
        rec.counter("exec_steals_total").inc(report.total_steals)
        # parent the per-item spans under the still-open exec.run span so
        # worker tracks link causally back to the driver in the trace
        ctx = rec.trace_context()
        parent_id = ctx.span_id if ctx is not None else None
        # a one-worker run executed its items on this thread: keep them on
        # its lane, so exec.run's self time excludes them and the phase
        # table does not count an inline batch twice
        inline = report.workers == 1
        for it in report.item_log if rec.enabled else ():
            rec.record_span(
                "exec.item",
                it.t0,
                it.t1,
                thread=None if inline else f"exec-worker-{it.worker}",
                parent_id=parent_id,
                task=task.get("task"),
                kind=it.kind,
                halos=it.n_halos,
                cost=it.cost,
                stolen=it.stolen,
                overhead=max(it.overhead, 0.0),
            )
        if report.poisoned:
            rec.event(
                "exec.items_poisoned",
                level="error",
                task=task.get("task"),
                items=list(report.poisoned),
                failures=report.item_failures,
                recovered=report.recovered_items,
            )
        rec.event(
            "exec.run_done",
            task=task.get("task"),
            workers=report.workers,
            items=report.n_items,
            halos=report.n_halos,
            split_halos=report.n_split_halos,
            steals=report.total_steals,
            imbalance=round(report.imbalance, 4),
            busy_fraction=round(report.busy_fraction, 4),
            item_failures=report.item_failures,
            poisoned=len(report.poisoned),
        )


class _InlineStore:
    """Dict-of-arrays stand-in for :class:`SharedParticleStore` (inline path)."""

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._arrays = arrays

    def __getitem__(self, field: str) -> np.ndarray:
        return np.asarray(self._arrays[field])


# ---------------------------------------------------------------------------
# batch drivers
# ---------------------------------------------------------------------------


def parallel_halo_centers(
    pos: np.ndarray,
    tags: np.ndarray,
    labels: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
    method: str = "bruteforce",
    select_tags: np.ndarray | None = None,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> HaloCentersResult:
    """Batch MBP center finding over a labeled particle set, at any width.

    The one body behind :func:`repro.analysis.centers.halo_centers`
    (same arguments; that name defaults ``workers`` to one, this one to
    every core, and takes a configured ``engine``): group →
    :class:`HaloWorkQueue` → :meth:`ExecutionEngine.run` → one
    reassembly, so centers / MBP tags / potentials / pair counts are
    **bit-identical** whatever the width.  Brute-force batches split
    giant halos into row slabs so a single dominant halo does not pin
    the makespan to one core.
    """
    if method not in ("bruteforce", "astar"):
        raise ValueError(f"unknown method {method!r}")
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    tags = np.asarray(tags)
    labels = np.asarray(labels)
    if engine is None:
        engine = ExecutionEngine(workers=workers)
    elif workers is not None:
        engine.workers = int(workers)

    halo_tags, groups = group_halo_members(labels, select_tags=select_tags)
    n_halos = len(halo_tags)
    counts = np.asarray([len(g) for g in groups], dtype=np.int64)
    members = np.concatenate([np.empty(0, np.int64), *groups])
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    work = engine.build_queue(counts, splittable=(method == "bruteforce"))
    task = {
        "task": "centers",
        "method": method,
        "mass": mass,
        "softening": softening,
    }
    payloads, report = engine.run(
        {"pos": pos, "members": members, "starts": starts}, work, task
    )

    centers = np.empty((n_halos, 3))
    mbp_tags = np.empty(n_halos, dtype=tags.dtype)
    potentials = np.empty(n_halos)
    per_halo_pairs = np.zeros(n_halos, dtype=np.int64)
    n_particles = np.zeros(n_halos, dtype=np.int64)
    exact = np.zeros(n_halos, dtype=np.int64)
    best: dict[int, tuple[float, int]] = {}  # slab reduction: h -> (phi, row)

    for _, entries in payloads:
        for entry in entries:
            if entry[0] == "halo":
                _, h, idx, phi, nparts, pairs, nexact = entry
                best[h] = (phi, idx)
                per_halo_pairs[h] = pairs
                n_particles[h] = nparts
                exact[h] = nexact
            else:  # slab partial: reduce exactly like np.argmin (first min wins)
                _, h, row, phi, rows, pairs = entry
                per_halo_pairs[h] += pairs
                n_particles[h] = counts[h]
                exact[h] += rows
                cur = best.get(h)
                if cur is None or (phi, row) < cur:
                    best[h] = (phi, row)

    total = CenterStats(
        n_particles=int(n_particles.sum()),
        pair_evaluations=int(per_halo_pairs.sum()),
        exact_potentials=int(exact.sum()),
    )
    done = [h for h in range(n_halos) if h in best]
    for h in done:
        phi, idx = best[h]
        gidx = groups[h][idx]
        centers[h] = pos[gidx]
        mbp_tags[h] = tags[gidx]
        potentials[h] = phi
    if len(done) < n_halos:
        # poisoned items (item_retries quarantine) drop their halos from
        # the catalog; everything that completed is returned unchanged
        keep = np.asarray(done, dtype=np.int64)
        halo_tags = halo_tags[keep]
        centers = centers[keep]
        mbp_tags = mbp_tags[keep]
        potentials = potentials[keep]
        per_halo_pairs = per_halo_pairs[keep]
    return HaloCentersResult(
        halo_tags=halo_tags,
        centers=centers,
        mbp_tags=mbp_tags,
        potentials=potentials,
        stats=total,
        per_halo_pairs=per_halo_pairs,
        exec_report=report,
    )


@dataclass
class SubhaloBatchResult:
    """Batch subhalo output: per-parent results + the engine report."""

    by_tag: dict[int, Any]
    halo_seconds: dict[int, float] = field(default_factory=dict)
    report: ExecReport | None = None


def _subhalo_cost(counts: np.ndarray) -> np.ndarray:
    """Scheduling cost model for the tree-based subhalo finder.

    The finder is super-linear but not all-pairs (k-d tree builds +
    k-NN + iterative unbinding of candidates): ``n log2 n`` matches the
    machine cost model in :mod:`repro.machines.cost`.
    """
    counts = np.asarray(counts, dtype=np.float64)
    return np.maximum(counts * np.log2(np.maximum(counts, 2.0)), 1.0).astype(np.int64)


def parallel_subhalos(
    pos: np.ndarray,
    vel: np.ndarray,
    halos: Mapping[int, np.ndarray],
    mass: float = 1.0,
    g_constant: float = 1.0,
    k_density: int = 32,
    n_link: int = 2,
    min_size: int = 20,
    unbind: bool = True,
    softening: float = 1e-5,
    box: float | None = None,
    vel_scale: float = 1.0,
    workers: int | None = None,
    engine: ExecutionEngine | None = None,
) -> SubhaloBatchResult:
    """Batch :func:`~repro.analysis.subhalos.find_subhalos` on the engine.

    ``halos`` maps parent halo tag -> member particle *indices* into
    ``pos``/``vel``.  ``box`` enables the periodic halo-local unwrap and
    ``vel_scale`` the proper-velocity conversion that
    :class:`~repro.insitu.algorithms.SubhaloFinderAlgorithm` needs.
    Results are identical for any worker count.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    vel = np.atleast_2d(np.asarray(vel, dtype=float))
    if engine is None:
        engine = ExecutionEngine(workers=workers)
    elif workers is not None:
        engine.workers = int(workers)

    tag_list = list(halos.keys())
    groups = [np.asarray(halos[t], dtype=np.int64) for t in tag_list]
    if not groups:
        return SubhaloBatchResult(by_tag={})
    counts = np.asarray([len(g) for g in groups], dtype=np.int64)
    members = np.concatenate(groups)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    work = engine.build_queue(counts, cost_model=_subhalo_cost, splittable=False)
    task = {
        "task": "subhalos",
        "mass": mass,
        "g_constant": g_constant,
        "k_density": k_density,
        "n_link": n_link,
        "min_size": min_size,
        "unbind": unbind,
        "softening": softening,
        "box": box,
        "vel_scale": vel_scale,
    }
    payloads, report = engine.run(
        {"pos": pos, "vel": vel, "members": members, "starts": starts}, work, task
    )
    by_tag: dict[int, Any] = {}
    halo_seconds: dict[int, float] = {}
    for _, entries in payloads:
        for _, h, res, seconds in entries:
            by_tag[tag_list[h]] = res
            halo_seconds[tag_list[h]] = seconds
    report.halo_seconds = halo_seconds
    return SubhaloBatchResult(by_tag=by_tag, halo_seconds=halo_seconds, report=report)
