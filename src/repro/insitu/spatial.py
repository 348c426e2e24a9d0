"""Shared per-step structures for the in-situ analysis chain.

Several CosmoTools algorithms need the same derived structures over the
live particle arrays every analysis step: the tag→row inverse
permutation (halo member tags back to particle rows) and the
domain-decomposition owner map (which simulated rank owns each
particle).  Before this module each consumer rebuilt its own copy —
five ``tag_index_map`` calls and ``n_ranks`` owner scans per step.

:class:`SharedStepIndex` memoizes each structure on the step's
:class:`~repro.insitu.algorithm.AnalysisContext` so it is built *once*
per analysis step and shared by every stage (FOF → centers → subhalos →
SO → writers).  Build/reuse traffic is visible through ``repro.obs``
counters:

``tag_index_builds_total`` / ``tag_index_reuses_total``
    tag→row map builds and reuses.
``owner_map_builds_total`` / ``owner_map_reuses_total``
    decomposition owner-map builds and reuses (keyed by grid shape).

The cache lives exactly as long as its context (one analysis step), so
it can never serve stale positions: a new step gets a new context and a
new :class:`SharedStepIndex`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..obs import get_recorder
from ..parallel.decomposition import CartesianDecomposition

__all__ = ["SharedStepIndex"]


class SharedStepIndex:
    """Per-step cache of shared spatial structures over one particle set.

    Parameters
    ----------
    particles:
        The live :class:`~repro.sim.particles.Particles` state at this
        step.  Only references are kept; nothing is copied until a
        structure is actually requested.
    """

    def __init__(self, particles: Any) -> None:
        self.particles = particles
        self._tag_index: np.ndarray | None = None
        self._owners: dict[tuple[int, int, int], np.ndarray] = {}

    # -- tag -> row map --------------------------------------------------------

    def tag_index(self) -> np.ndarray:
        """Inverse permutation ``map[tag] = row`` for the dense tags."""
        rec = get_recorder()
        if self._tag_index is None:
            rec.counter("tag_index_builds_total", "tag->row map builds").inc()
            tags = np.asarray(self.particles.tag)
            out = np.empty(int(tags.max()) + 1 if len(tags) else 0, dtype=np.intp)
            out[tags] = np.arange(len(tags), dtype=np.intp)
            self._tag_index = out
        else:
            rec.counter("tag_index_reuses_total", "tag->row map reuses").inc()
        return self._tag_index

    # -- decomposition owner map ----------------------------------------------

    def owners(self, decomp: CartesianDecomposition) -> np.ndarray:
        """Per-particle owner ranks under ``decomp``, built once per grid."""
        rec = get_recorder()
        key = tuple(decomp.dims)
        owners = self._owners.get(key)
        if owners is None:
            rec.counter("owner_map_builds_total", "owner-map builds").inc()
            owners = decomp.rank_of_position(np.asarray(self.particles.pos, dtype=float))
            self._owners[key] = owners
        else:
            rec.counter("owner_map_reuses_total", "owner-map reuses").inc()
        return owners

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SharedStepIndex n={len(self.particles.pos)} "
            f"tag_index={'yes' if self._tag_index is not None else 'no'} "
            f"owner_maps={len(self._owners)}>"
        )
