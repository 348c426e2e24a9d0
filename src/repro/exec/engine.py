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
  chunks; workers claim the items in that order through one cursor, so
  the head items go one per worker and the tail to whoever idles first;
* every batch runs the one job function, :func:`run_job`: pool workers
  call it with the shared cursor, a one-worker batch calls it on the
  calling thread with a local cursor (no fork, no shared-memory
  segment, no pool lock), and one handler folds its messages into every
  :class:`ExecReport`.  A second pooled batch that finds the shared
  pool busy waits for it; the engine forks only to create or replace
  that pool;
* results return as tiny tuples (indices + scalars for centers; pickled
  :class:`~repro.analysis.subhalos.SubhaloResult` for subhalos) and are
  reassembled in deterministic halo order.  This is the **one path** a
  batch of per-halo kernels takes — the item runners below are the only
  callers of ``mbp_center_bruteforce`` / ``find_subhalos`` in ``src/``
  — so the worker count is a width, not a choice of code, and output is
  bit-identical for any count (the independent per-halo loop it is
  checked against lives in ``tests/oracles``);
* a crashing worker is isolated: its traceback is shipped back, the
  remaining workers drain at the next item boundary, and the engine
  raises :class:`WorkerError` instead of hanging;
* with ``item_retries > 0`` the failure unit shrinks from worker to
  *item*: a failing item (including an injected ``"exec.item"`` fault
  from the active :class:`~repro.faults.FaultPlan`) is reported as an
  item error, retried by the parent on its own thread under the shared
  failure ladder (:meth:`~repro.faults.RetryPolicy.attempt`, no requeue
  rung) and — after exhausting its retries — *poisoned*: quarantined in
  the engine's bounded :class:`~repro.faults.DeadLetterBox` and
  excluded from the output, while every other item completes normally
  (see ``docs/failures.md``);
* everything is instrumented through :mod:`repro.obs`: per-worker item
  spans land in the Chrome trace on ``exec-worker-N`` tracks (on the
  calling thread's own track for an inline run), the
  ``exec_load_imbalance_ratio`` gauge reports max/mean worker busy time
  (the paper's Figure 4 metric), ``exec_steals_total`` counts claims
  past the head (none at one worker), and each ``exec.item`` span
  carries its dispatch ``overhead`` (the gap since its worker's
  previous item ended).
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..analysis.centers import (
    DEFAULT_SOFTENING,
    CenterStats,
    HaloCentersResult,
    _phi_blocked,
    center_finding_cost,
    group_halo_members,
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
    "run_job",
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


def _width(workers: int | None) -> int:
    """A run's width: ``None`` is :func:`default_workers`, below one is an error."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ValueError(f"a batch needs at least one worker, got {workers}")
    return int(workers)


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
# task runners and the one job loop that drives them (registered by name:
# a job names its task, and pool workers resolve it in their own copy)
# ---------------------------------------------------------------------------


class ParticleArrays(Protocol):
    """Structural type shared by :class:`SharedParticleStore` and a plain
    mapping of arrays (a one-worker batch): field name -> particle array."""

    def __getitem__(self, field: str, /) -> np.ndarray: ...


def _members_of(store: ParticleArrays, h: int) -> np.ndarray:
    starts = store["starts"]
    return store["members"][int(starts[h]) : int(starts[h + 1])]


def _run_centers_item(
    item: WorkItem,
    store: ParticleArrays,
    task: Mapping[str, Any],
    cache: dict[int, np.ndarray],
) -> list[tuple[Any, ...]]:
    """Center finding: ``(h, idx, phi)`` per whole halo, or ``(h, row, phi)``
    for the deepest row of a giant halo's slab."""
    pos = store["pos"]
    mass = task["mass"]
    softening = task["softening"]
    if item.kind == "slab":
        h = item.halo_indices[0]
        hpos = cache.get(h)
        if hpos is None:
            cache.clear()  # keep at most one gathered giant halo resident
            hpos = pos[_members_of(store, h)]
            cache[h] = hpos
        phi = _phi_blocked(hpos, item.row_start, item.row_end, mass, softening)
        b = int(np.argmin(phi))
        return [(h, item.row_start + b, float(phi[b]))]
    out: list[tuple[Any, ...]] = []
    for h in item.halo_indices:
        hpos = pos[_members_of(store, h)]
        idx, phi, _ = mbp_center_bruteforce(hpos, mass=mass, softening=softening)
        out.append((h, idx, phi))
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


def run_job(
    job_id: int,
    worker: int,
    items: Sequence[WorkItem],
    store: ParticleArrays,
    task: Mapping[str, Any],
    claim: Callable[[], int | None],
    put: Callable[[tuple[Any, ...]], None],
    catch_item_errors: bool,
) -> None:
    """Run claimed items until ``claim`` returns ``None``: the one job loop.

    A pool worker claims from the shared cursor and puts to the result
    queue; a one-worker batch claims from a local cursor and hands each
    message straight to the engine's handler.  Every item becomes one
    ``("item", job_id, worker, item_id, t0, t1, overhead, payload)``
    message, ``overhead`` being the gap since this worker's previous
    item ended.  A failing item propagates its exception, unless
    ``catch_item_errors`` is set: then its ``payload`` is ``None`` and
    the parent retries it.
    """
    runner = _TASK_RUNNERS[task["task"]]
    cache: dict[int, np.ndarray] = {}
    t_prev = time.perf_counter()
    while (item_id := claim()) is not None:
        t0 = time.perf_counter()
        payload: list[tuple[Any, ...]] | None
        try:
            maybe_inject("exec.item", item_id)
            payload = runner(items[item_id], store, task, cache)
        except Exception:
            if not catch_item_errors:
                raise
            payload = None
        t1 = time.perf_counter()
        put(("item", job_id, worker, item_id, t0, t1, t0 - t_prev, payload))
        t_prev = t1


# ---------------------------------------------------------------------------
# the shared worker pool
# ---------------------------------------------------------------------------
#
# One long-lived WorkerPool (see repro.exec.pool) is shared by every
# engine in the process, so a campaign that runs the engine once per
# analysis step pays the fork + warm-up cost once, not per step.  The
# pool runs one job at a time: a second pooled batch on another thread
# (e.g. the pipelined in-situ chain next to an off-line job) waits for
# it rather than forking a pool of its own.

_SHARED_POOL: WorkerPool | None = None
_SHARED_POOL_LOCK = threading.Lock()


@contextlib.contextmanager
def _shared_pool(n_workers: int) -> Iterator[tuple[WorkerPool, bool]]:
    """Hold the shared pool for one job; yields ``(pool, reused)``.

    Waits while another thread holds it, inside an ``exec.pool_wait``
    span (opened only when the lock is taken, so an uncontended batch
    records none).  Forks a pool only when there is none, or the last
    one is closed, dead or narrower than ``n_workers``; ``reused`` means
    warm workers take the job.  A job cut short by an exception closes
    the pool, so the next batch replaces it.
    """
    global _SHARED_POOL
    if not _SHARED_POOL_LOCK.acquire(blocking=False):
        with get_recorder().span("exec.pool_wait", workers=n_workers):
            _SHARED_POOL_LOCK.acquire()
    try:
        pool = _SHARED_POOL
        reused = pool is not None and pool.alive and pool.n_workers >= n_workers
        if pool is None or not reused:
            if pool is not None:
                pool.close()
            pool = _SHARED_POOL = WorkerPool(n_workers)
        try:
            yield pool, reused
        except BaseException:
            pool.close()
            raise
    finally:
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
        Width of a run, at least one (default: cores available to this
        process).  One worker — or a queue of one item — runs the job
        on the calling thread; more fan it out over the shared pool.
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
        self.workers = _width(workers)
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
        width = max(1, min(self.workers, len(work.items)))
        n_halos = int(len(arrays["starts"]) - 1) if "starts" in arrays else 0
        payloads: list[tuple[int, list[tuple[Any, ...]]]] = []
        log: list[ItemRecord] = []
        failed: list[int] = []
        busy = [0.0] * width
        steals = [0] * width

        def take(msg: tuple[Any, ...]) -> None:
            """Fold one ``item`` message of :func:`run_job` into the run."""
            _, _, w, item_id, t0, t1, overhead, payload = msg
            item = work.items[item_id]
            # the first ``width`` claims are the LPT head, one per worker;
            # a later claim is a steal (there is no one to steal from at 1)
            stolen = width > 1 and item_id >= width
            log.append(ItemRecord(w, item.kind, item.n_halos, item.cost, t0, t1, overhead, stolen))
            busy[w] += t1 - t0
            steals[w] += stolen
            if payload is None:
                failed.append(item_id)
            else:
                payloads.append((item_id, payload))

        with rec.span(
            "exec.run",
            task=task.get("task"),
            workers=width,
            items=len(work.items),
            halos=n_halos,
        ):
            t_wall0 = time.perf_counter()
            if width == 1:
                ids = iter(range(len(work.items)))
                catch = self.item_retries > 0
                run_job(0, 0, work.items, arrays, task, lambda: next(ids, None), take, catch)
            else:
                self._run_pool(arrays, work, task, width, take)
            recovered, poisoned = self._retry_failed_items(failed, arrays, work, task, payloads)
            mean_busy = sum(busy) / width
            report = ExecReport(
                workers=width,
                n_items=len(work.items),
                n_halos=n_halos,
                n_split_halos=work.n_split_halos,
                wall_seconds=time.perf_counter() - t_wall0,
                worker_busy=busy,
                steals=steals,
                imbalance=max(busy) / mean_busy if mean_busy > 0 else 1.0,
                total_cost=work.total_cost,
                item_log=log,
                item_failures=len(failed),
                recovered_items=recovered,
                poisoned=poisoned,
            )
            self._record_telemetry(rec, report, task)
        return payloads, report

    def _run_pool(
        self,
        arrays: Mapping[str, np.ndarray],
        work: HaloWorkQueue,
        task: dict[str, Any],
        width: int,
        take: Callable[[tuple[Any, ...]], None],
    ) -> None:
        """Run the job on the shared pool's first ``width`` workers."""
        # fault plan + trace context for the workers: run() holds the
        # exec.run span open on this thread, so worker telemetry comes
        # back causally parented under the caller's trace
        hop = MemberContext.capture()
        snaps: dict[int, dict[str, Any] | None] = {}
        error: WorkerError | None = None
        store = SharedParticleStore.create(**arrays)
        try:
            with _shared_pool(width) as (wpool, reused):
                if reused:
                    get_recorder().counter(
                        "exec_pool_reuse_total",
                        help="engine runs served by an already-warm worker pool",
                    ).inc()
                job_id = wpool.submit(
                    width, store.spec, work.items, task, hop, self.item_retries > 0
                )

                def on_message(msg: tuple[Any, ...]) -> int | None:
                    nonlocal error
                    if msg[1] != job_id:
                        # straggler from an earlier aborted job on a reused
                        # pool: job-id tagging makes it harmless
                        return None
                    if msg[0] == "item":
                        take(msg)
                        return None
                    w = int(msg[2])
                    if msg[0] == "done":
                        snaps[w] = msg[3]
                        return w
                    # "error": the worker shipped the traceback and survives
                    # for the next job; the batch still fails loudly
                    wpool.group.abort()
                    if error is None:
                        tb = msg[3].strip()
                        last = tb.splitlines()[-1] if tb else "unknown"
                        error = WorkerError(
                            f"worker {w} failed: {last}", worker_id=w, remote_traceback=msg[3]
                        )
                    return w

                dead, stuck = wpool.group.drain(range(width), on_message, self.result_timeout)
                if dead or stuck:
                    wpool.close()  # the next batch forks a fresh pool
        finally:
            store.unlink()
        # worker root spans/events hang under the open exec.run span
        hop.fold(snaps, "exec-worker")
        if error is None and dead:
            w, code = min(dead.items())
            error = WorkerError(f"worker {w} died without reporting (exitcode {code})", worker_id=w)
        if error is None and stuck:
            error = WorkerError(
                f"timed out after {self.result_timeout:.0f}s waiting for workers {stuck}"
            )
        if error is not None:
            raise error

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
        retry = RetryPolicy(max_attempts=self.item_retries, base_delay=0.0, max_delay=0.0)
        attempts = 1 + self.item_retries
        recovered = 0
        poisoned: list[int] = []

        def attempt(item_id: int) -> list[tuple[Any, ...]]:
            maybe_inject("exec.item", item_id)
            return runner(work.items[item_id], arrays, task, {})

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


# ---------------------------------------------------------------------------
# batch drivers
# ---------------------------------------------------------------------------


def parallel_halo_centers(
    pos: np.ndarray,
    tags: np.ndarray,
    labels: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
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
    **bit-identical** whatever the width.  Giant halos are split into
    row slabs so a single dominant halo does not pin the makespan to
    one core.  A halo is returned only when every item covering it
    completed: one poisoned slab drops its whole halo, never shrinking
    the argmin to the surviving rows.  ``stats`` and ``per_halo_pairs``
    count the returned halos, each ``n(n-1)`` pairs.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    tags = np.asarray(tags)
    labels = np.asarray(labels)
    if engine is None:
        engine = ExecutionEngine(workers=workers)
    elif workers is not None:
        engine.workers = _width(workers)

    halo_tags, groups = group_halo_members(labels, select_tags=select_tags)
    counts = np.asarray([len(g) for g in groups], dtype=np.int64)
    members = np.concatenate([np.empty(0, np.int64), *groups])
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    work = engine.build_queue(counts)
    task = {"task": "centers", "mass": mass, "softening": softening}
    payloads, report = engine.run(
        {"pos": pos, "members": members, "starts": starts}, work, task
    )

    best: dict[int, tuple[float, int]] = {}  # h -> (phi, row)
    for _, entries in payloads:
        for h, row, phi in entries:
            # slab partials reduce exactly like np.argmin (first min wins)
            cur = best.get(h)
            if cur is None or (phi, row) < cur:
                best[h] = (phi, row)
    # poisoned items (item_retries quarantine) drop every halo they cover
    lost = {h for i in report.poisoned for h in work.items[i].halo_indices}
    done = np.asarray([h for h in range(len(halo_tags)) if h not in lost], dtype=np.int64)
    rows = [int(groups[h][best[h][1]]) for h in done]
    done_counts = counts[done]
    per_halo_pairs = center_finding_cost(done_counts)
    return HaloCentersResult(
        halo_tags=halo_tags[done],
        centers=pos[rows],
        mbp_tags=tags[rows],
        potentials=np.asarray([best[h][0] for h in done], dtype=float),
        stats=CenterStats(
            n_particles=int(done_counts.sum()), pair_evaluations=int(per_halo_pairs.sum())
        ),
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
        engine.workers = _width(workers)

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
    return SubhaloBatchResult(by_tag=by_tag, halo_seconds=halo_seconds, report=report)
