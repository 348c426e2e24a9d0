"""Pipelined in-situ analysis: overlap analysis of step *t* with step *t+1*.

The plain :class:`~repro.insitu.manager.InSituAnalysisManager` runs the
analysis chain synchronously inside ``advance_step`` — the PM solver
stalls for the full FOF → centers → writers latency on every analysis
step, and the :class:`~repro.obs.timeline.WorkflowTimeline` overlap
fraction of the in-situ leg is structurally zero.  The paper's headline
win is the opposite: analysis executing *concurrently* with the
simulation.

:class:`AsyncInSituManager` wraps a manager and decouples the two:

1. When a step is due, the simulation's particle state is snapshotted
   into a recycled buffer (double-buffering: ``max_in_flight + 1``
   buffers total, copied with :meth:`~repro.sim.particles.Particles.copy_into`
   — no steady-state allocation).
2. The analysis chain runs against the snapshot on a dedicated worker
   thread while the solver advances the next step.  The overlap is real
   parallelism where the kernels on either side release the GIL (the PM
   solver's FFTs and row passes, the NumPy/SciPy kernels of the chain)
   and interleaving elsewhere.  The chain's rank programs run as
   threads: forking rank processes from this thread while the PM
   threads run is unsafe, so
   :func:`~repro.core.driver.run_combined_workflow` keeps the chain
   inline when the SPMD transport is ``"process"``.
3. Backpressure: at most ``max_in_flight`` analyses may be pending; a
   faster simulation blocks on the oldest future before snapshotting
   again, which bounds memory to the buffer pool.

Results are bit-identical to the serial manager: snapshots are taken
synchronously at the same points in simulation time, the chain runs in
step order on one worker, and the wrapped manager archives the exact
same per-step contexts.  The worker binds the submitting step's
:class:`~repro.obs.context.TraceContext`, so analysis spans parent under
the ``sim.step`` that produced the snapshot and land on their own
timeline lane — ``repro.obs timeline`` shows the overlap directly.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Iterator

from ..obs import get_recorder
from .algorithm import AnalysisContext, InSituAlgorithm
from .manager import InSituAnalysisManager

if TYPE_CHECKING:
    from ..sim.particles import Particles

__all__ = ["AsyncInSituManager", "PendingAnalysis", "SimSnapshot"]


class SimSnapshot:
    """Frozen stand-in for a live simulation at one analysis step.

    Duck-types the surface the in-situ algorithms touch (``particles``,
    ``config``, ``cosmo``, ``a``, ``step``) over a snapshot buffer, so
    the chain analyses a stable copy while the real simulation advances.
    """

    __slots__ = ("a", "config", "cosmo", "particles", "step")

    def __init__(self, sim: Any, particles: "Particles", step: int, a: float) -> None:
        self.particles = particles
        self.config = sim.config
        self.cosmo = sim.cosmo
        self.step = step
        self.a = a


class PendingAnalysis:
    """Handle returned by :meth:`AsyncInSituManager.execute`.

    The simulation driver treats the return value of the analysis hook
    opaquely (``getattr(context, "timings", None)``), so this handle can
    stand in for the eventual :class:`AnalysisContext`.  ``result()``
    blocks until the step's analysis finishes and returns that context.
    """

    __slots__ = ("future", "step")

    def __init__(self, step: int, future: "Future[AnalysisContext]") -> None:
        self.step = step
        self.future = future

    def result(self, timeout: float | None = None) -> AnalysisContext:
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future.done()


class AsyncInSituManager:
    """Drop-in analysis manager that pipelines the wrapped chain.

    Parameters
    ----------
    manager:
        The synchronous manager to wrap (owns algorithms and history).
        A fresh one is created when omitted.
    max_in_flight:
        Backpressure bound: how many step analyses may be pending before
        ``execute`` blocks on the oldest.  The buffer pool holds
        ``max_in_flight + 1`` particle snapshots.
    """

    def __init__(
        self,
        manager: InSituAnalysisManager | None = None,
        max_in_flight: int = 1,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.manager = manager if manager is not None else InSituAnalysisManager()
        self.max_in_flight = max_in_flight
        self._pending: deque[tuple[PendingAnalysis, Any]] = deque()
        self._buffers: list[Any] = []  # recycled snapshot Particles
        self._executor: ThreadPoolExecutor | None = None

    # -- manager facade -------------------------------------------------------

    @property
    def algorithms(self) -> list[InSituAlgorithm]:
        return self.manager.algorithms

    @property
    def history(self) -> dict[int, AnalysisContext]:
        return self.manager.history

    def register(self, algorithm: InSituAlgorithm) -> InSituAlgorithm:
        return self.manager.register(algorithm)

    def get(self, name: str) -> InSituAlgorithm:
        return self.manager.get(name)

    def latest(self) -> AnalysisContext | None:
        return self.manager.latest()

    def __iter__(self) -> Iterator[InSituAlgorithm]:
        return iter(self.manager)

    def __len__(self) -> int:
        return len(self.manager)

    # -- the simulation hook --------------------------------------------------

    def execute(self, sim: Any, step: int, a: float) -> Any:
        """Snapshot ``sim`` and schedule the analysis chain for ``step``.

        Returns a :class:`PendingAnalysis` when work was scheduled, or an
        empty (un-archived) :class:`AnalysisContext` when no algorithm is
        due — the same fast path as the synchronous manager.
        """
        due = any(alg.should_execute(step, a) for alg in self.manager.algorithms)
        if not due:
            return AnalysisContext(step=step, a=a)
        # backpressure: bound pending work (and therefore live buffers)
        while len(self._pending) >= self.max_in_flight:
            self._collect_oldest()
        snapshot = sim.snapshot(into=self._buffers.pop() if self._buffers else None)
        proxy = SimSnapshot(sim, snapshot, step, a)
        # the analysis spans parent under the sim.step span that produced
        # the snapshot, on the worker's own timeline lane
        trace = get_recorder().trace_context()

        def task() -> AnalysisContext:
            worker_rec = get_recorder()
            worker_rec.bind_thread(trace)
            context = self.manager.execute(proxy, step, a)
            # the per-step spatial cache holds views over the snapshot
            # buffer; drop it so the buffer can be recycled safely
            context._spatial = None
            return context

        pending = PendingAnalysis(step, self._ensure_executor().submit(task))
        self._pending.append((pending, snapshot))
        return pending

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # a single worker keeps the chain in step order (bit-identical
            # history, writers append in sequence)
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="insitu-pipeline"
            )
        return self._executor

    def _collect_oldest(self) -> AnalysisContext:
        pending, buffer = self._pending.popleft()
        try:
            return pending.future.result()
        finally:
            self._buffers.append(buffer)

    # -- completion -----------------------------------------------------------

    def drain(self) -> dict[int, AnalysisContext]:
        """Wait for every pending analysis; re-raises the first failure.

        Call after the simulation loop finishes (the driver does).
        Returns the wrapped manager's history.
        """
        while self._pending:
            self._collect_oldest()
        return self.manager.history

    def close(self) -> None:
        """Drain and shut the worker down (idempotent)."""
        try:
            self.drain()
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self._buffers.clear()

    def __enter__(self) -> "AsyncInSituManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
