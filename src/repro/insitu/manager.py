"""The CosmoTools in-situ analysis manager.

Paper §3.1: "The *InSituAnalysisManager* class holds a list of
references to concrete *InSituAlgorithm* instances and serves as the
primary object interacting with the simulation code."

The manager is the single hook the simulation driver calls
(:meth:`InSituAnalysisManager.execute`); it filters algorithms by their
``should_execute`` predicate, runs them in registration order (so
sequenced pipelines like halos → centers → SO masses work), times each,
and archives the per-step :class:`~repro.insitu.algorithm.AnalysisContext`.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from ..obs import get_recorder
from .algorithm import AnalysisContext, InSituAlgorithm

__all__ = ["InSituAnalysisManager"]


class InSituAnalysisManager:
    """Registry and dispatcher for in-situ analysis algorithms.

    Designed to be minimally intrusive: the simulation calls a single
    method per step; overhead when no algorithm fires is one predicate
    evaluation per registered algorithm (the paper notes the virtual-call
    overhead is negligible).
    """

    def __init__(self) -> None:
        self.algorithms: list[InSituAlgorithm] = []
        self.history: dict[int, AnalysisContext] = {}

    # -- registration ---------------------------------------------------------

    def register(self, algorithm: InSituAlgorithm) -> InSituAlgorithm:
        """Append an algorithm (execution follows registration order)."""
        if not isinstance(algorithm, InSituAlgorithm):
            raise TypeError(f"{algorithm!r} is not an InSituAlgorithm")
        if any(a.name == algorithm.name for a in self.algorithms):
            raise ValueError(f"algorithm name {algorithm.name!r} already registered")
        self.algorithms.append(algorithm)
        return algorithm

    def __iter__(self) -> Iterator[InSituAlgorithm]:
        return iter(self.algorithms)

    def __len__(self) -> int:
        return len(self.algorithms)

    def get(self, name: str) -> InSituAlgorithm:
        """Look up a registered algorithm by name."""
        for a in self.algorithms:
            if a.name == name:
                return a
        raise KeyError(f"no algorithm named {name!r}")

    # -- the simulation hook ----------------------------------------------------

    def execute(self, sim: Any, step: int, a: float) -> AnalysisContext:
        """Run every algorithm due at ``(step, a)`` against ``sim``.

        Returns the step's :class:`AnalysisContext` (also archived in
        ``self.history``).  An empty context is returned — and *not*
        archived — when nothing fires.
        """
        due = [alg for alg in self.algorithms if alg.should_execute(step, a)]
        context = AnalysisContext(step=step, a=a)
        if not due:
            return context
        rec = get_recorder()
        with rec.span("insitu.execute", step=step, algorithms=len(due)):
            for alg in due:
                t0 = time.perf_counter()
                with rec.span(f"insitu.{alg.name}", step=step):
                    alg.execute(sim, context)
                elapsed = time.perf_counter() - t0
                # the span holds the same interval; this copy stays because
                # the benchmark's per-algorithm rows read wall_seconds[alg.name]
                context.timings.setdefault("wall_seconds", {})[alg.name] = elapsed
        rec.event("insitu.step_archived", step=step, algorithms=[a.name for a in due])
        self.history[step] = context
        return context

    # -- results access ------------------------------------------------------

    def latest(self) -> AnalysisContext | None:
        """The most recent archived step context, if any."""
        if not self.history:
            return None
        return self.history[max(self.history)]
