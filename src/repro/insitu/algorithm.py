"""The CosmoTools in-situ algorithm interface.

Paper §3.1: "CosmoTools defines a pure abstract base class,
*InSituAlgorithm*, from which specific analysis tasks inherit.  Each
algorithm subclass must implement three virtual functions:
*SetParameters()* for configuration, *ShouldExecute()* to determine if
the analysis should be executed at a given time step, and *Execute()*
to perform the analysis."

The Python rendering keeps the same three-method contract
(:meth:`InSituAlgorithm.set_parameters`,
:meth:`InSituAlgorithm.should_execute`, :meth:`InSituAlgorithm.execute`)
plus a shared :class:`AnalysisContext` through which sequenced algorithms
pass intermediate products (halos → centers → SO masses), since the
paper notes "the three halo analysis steps have to be carried out in
sequence".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

__all__ = ["AnalysisContext", "InSituAlgorithm"]


@dataclass
class AnalysisContext:
    """Mutable blackboard shared by the algorithms of one analysis step.

    ``store`` holds named intermediate products (e.g. ``"fof"`` set by
    the halo finder, read by the center finder); ``timings`` collects
    per-algorithm (and per-rank, where applicable) wall-clock records
    that the workflow accounting consumes.  :meth:`shared_spatial`
    exposes the step's :class:`~repro.insitu.spatial.SharedStepIndex` —
    the memoized structures (tag→row map, owner map) every stage shares
    instead of rebuilding.
    """

    step: int = 0
    a: float = 1.0
    store: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, Any] = field(default_factory=dict)
    #: lazily-created per-step spatial cache (see :meth:`shared_spatial`)
    _spatial: Any = field(default=None, init=False, repr=False, compare=False)

    def shared_spatial(self, sim: Any) -> Any:
        """The step's shared spatial cache, created on first use.

        Keyed to this context's lifetime: a new analysis step gets a new
        context and therefore fresh structures over the current particle
        positions.  All algorithms of one step share the same instance,
        which is what bounds each structure to one build per step.
        """
        if self._spatial is None:
            from .spatial import SharedStepIndex

            self._spatial = SharedStepIndex(sim.particles)
        return self._spatial

    def require(self, key: str) -> Any:
        """Fetch an upstream product, with a sequencing-aware error."""
        if key not in self.store:
            raise KeyError(
                f"analysis product {key!r} not available — check that the "
                "producing algorithm is registered before its consumers"
            )
        return self.store[key]


class InSituAlgorithm(ABC):
    """Abstract base class for in-situ analysis tasks.

    Subclasses are registered with the
    :class:`~repro.insitu.manager.InSituAnalysisManager`, which invokes
    them inside the simulation's main physics loop.  Implementations
    must be zero-copy-minded: they operate directly on the simulation's
    distributed particle arrays rather than reshaping them.
    """

    #: Unique registry name; subclasses must override.
    name: str = "abstract"

    def __init__(self, **parameters: Any) -> None:
        self.parameters: dict[str, Any] = {}
        if parameters:
            self.set_parameters(**parameters)

    def set_parameters(self, **parameters: Any) -> None:
        """Configure the algorithm (from the CosmoTools config file).

        The default implementation records parameters in
        ``self.parameters`` and assigns any matching attributes declared
        by the subclass; override for validation.
        """
        for key, value in parameters.items():
            self.parameters[key] = value
            if hasattr(self, key):
                setattr(self, key, value)

    @abstractmethod
    def should_execute(self, step: int, a: float) -> bool:
        """Whether to run at this time step / scale factor."""

    @abstractmethod
    def execute(self, sim: Any, context: AnalysisContext) -> None:
        """Perform the analysis against the live simulation state.

        ``sim`` is the running simulation (exposes ``particles``,
        ``config``, ``cosmo``); results and timings go into ``context``.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} params={self.parameters}>"
