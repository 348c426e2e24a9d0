"""One-pass incremental friends-of-friends over slab-ordered streams.

The bounded-memory half of the arXiv:1711.00975 blueprint: particles
arrive in chunks sorted by wrapped x, each chunk is linked against a
*boundary ring* of still-linkable earlier particles, and finished groups
are retired to accumulators as soon as geometry proves no future
particle can join them.

Exactness argument (the contract ``docs/streaming.md`` spells out):

* Let ``frontier`` be the largest x seen so far.  Slab order means every
  future particle has ``x >= frontier``.
* The ring keeps exactly the particles with ``x >= frontier - ll``
  (tail slab: directly linkable to the future) or ``x <= ll`` (head
  slab: linkable to the box's far edge through the periodic wrap).  Any
  linkable pair ``(p earlier, q later)`` therefore still has ``p``
  resident when ``q`` arrives: ``qx >= frontier`` implies
  ``px >= qx - ll >= frontier - ll`` for a direct link, and a wrapped
  link forces ``px <= ll``.
* Per chunk, one :func:`~repro.analysis.fof.link_components` call over
  ``ring + chunk`` finds every new edge (the periodic metric links the
  head slab to late chunks with no extra pass), and components are
  merged into persistent groups through a
  :class:`~repro.analysis.union_find.GrowableDisjointSet`.
* A group with no remaining ring member can never gain another
  particle; it is *retired* — its ``(min tag, count)`` pair emitted —
  and the forest compacted, so resident state is
  O(chunk + ring + active groups).

The emitted catalog is bit-identical to the in-memory finder's
``(halo_tags, halo_counts)`` for any chunk size: membership is exact by
the argument above, and both sides identify a halo by its minimum
particle tag.

Implementation note: the chunk link is the same compiled periodic pair
search the in-memory finder runs (``link_components``: a k-d tree over
the resident particles, memory proportional to ring + chunk), so the
streamed and in-memory catalogs cannot drift apart at the
``d <= linking_length`` boundary — there is one finder, not two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.fof import DEFAULT_MIN_COUNT, link_components, wrap_periodic
from ..analysis.union_find import GrowableDisjointSet

__all__ = ["StreamOrderError", "StreamedCatalog", "StreamingFOF", "GroupForest"]

_NO_TAG = np.iinfo(np.int64).max


class StreamOrderError(ValueError):
    """The stream violated the slab-order (non-decreasing x) contract."""


@dataclass(frozen=True)
class StreamedCatalog:
    """Halo catalog from a streamed run: ``(min tag, count)`` per halo.

    ``halo_tags``/``halo_counts`` are sorted by tag and bit-comparable
    to :class:`~repro.analysis.fof.FOFResult` on the same particles.
    """

    halo_tags: np.ndarray
    halo_counts: np.ndarray
    min_count: int
    n_particles: int

    @property
    def n_halos(self) -> int:
        return len(self.halo_tags)


class GroupForest:
    """Active halo groups: growable union-find + per-group aggregates.

    Slots mirror the :class:`GrowableDisjointSet` universe; ``counts``
    and ``min_tags`` are maintained at component roots (folded on union,
    gathered on compaction).
    """

    def __init__(self) -> None:
        self.dsu = GrowableDisjointSet()
        self.counts = np.zeros(16, dtype=np.int64)
        self.min_tags = np.full(16, _NO_TAG, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.dsu)

    def new_groups(self, k: int) -> np.ndarray:
        """Create ``k`` empty groups; returns their slot ids."""
        start = self.dsu.add(k)
        end = start + k
        if end > len(self.counts):
            cap = max(2 * len(self.counts), end)
            grown_c = np.zeros(cap, dtype=np.int64)
            grown_c[:start] = self.counts[:start]
            grown_t = np.full(cap, _NO_TAG, dtype=np.int64)
            grown_t[:start] = self.min_tags[:start]
            self.counts, self.min_tags = grown_c, grown_t
        self.counts[start:end] = 0
        self.min_tags[start:end] = _NO_TAG
        return np.arange(start, end, dtype=np.intp)

    def union(self, a: int, b: int) -> int:
        """Merge two groups, folding counts/min-tags into the new root."""
        ra, rb = self.dsu.find(a), self.dsu.find(b)
        if ra == rb:
            return ra
        r = self.dsu.union(ra, rb)
        other = rb if r == ra else ra
        self.counts[r] += self.counts[other]
        self.min_tags[r] = min(self.min_tags[r], self.min_tags[other])
        return r

    def fold(self, roots: np.ndarray, counts: np.ndarray, min_tags: np.ndarray) -> None:
        """Add member counts / min tags at roots (repeats accumulate)."""
        np.add.at(self.counts, roots, counts)
        np.minimum.at(self.min_tags, roots, min_tags)

    def roots(self) -> np.ndarray:
        return self.dsu.roots()

    def compact(self, keep_roots: np.ndarray) -> np.ndarray:
        """Drop all but ``keep_roots``; returns the sorted old-root map."""
        old = self.dsu.compact(keep_roots)
        k = len(old)
        self.counts[:k] = self.counts[old]
        self.min_tags[:k] = self.min_tags[old]
        return old


class StreamingFOF:
    """Incremental FOF over slab-ordered chunks (periodic box).

    Feed chunks with :meth:`ingest`; call :meth:`finalize` for the
    catalog.  ``on_retire(tags, counts)`` fires whenever halos (groups
    with ``count >= min_count``) become final — the hook the one-pass
    accumulators fold; retirement order is deterministic (sorted by tag
    within each batch, batches in stream order).
    """

    def __init__(
        self,
        box: float,
        linking_length: float,
        min_count: int = DEFAULT_MIN_COUNT,
        on_retire: Callable[[np.ndarray, np.ndarray], None] | None = None,
    ):
        if box <= 0:
            raise ValueError("box must be positive")
        if not 0 < linking_length < box:
            raise ValueError("need 0 < linking_length < box")
        self.box = float(box)
        self.linking_length = float(linking_length)
        self.min_count = int(min_count)
        self.on_retire = on_retire
        self._forest = GroupForest()
        self._ring_pos = np.empty((0, 3), dtype=np.float64)
        self._ring_group = np.empty(0, dtype=np.intp)
        self._frontier = -np.inf
        self._tags_seen: list[np.ndarray] = []  # only retired outputs, not members
        self._counts_seen: list[np.ndarray] = []
        self.n_particles = 0
        self.n_chunks = 0
        self.peak_resident = 0
        self._closed = False

    # -- introspection (what the engine exports as gauges) ------------------

    @property
    def ring_size(self) -> int:
        return len(self._ring_group)

    @property
    def active_groups(self) -> int:
        return self._forest.dsu.n_components

    # -- the per-chunk step -------------------------------------------------

    def ingest(self, pos: np.ndarray, tags: np.ndarray) -> None:
        """Link one slab-ordered chunk and retire finished groups."""
        if self._closed:
            raise RuntimeError("finalize() already called")
        pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
        tags = np.asarray(tags, dtype=np.int64)
        n_c = len(pos)
        if len(tags) != n_c:
            raise ValueError("tags length mismatch")
        self.n_chunks += 1
        if n_c == 0:
            return
        pos = wrap_periodic(pos, self.box)
        x = pos[:, 0]
        xmin = float(x.min())
        if xmin < self._frontier:
            raise StreamOrderError(
                f"chunk {self.n_chunks - 1} min x {xmin:.6g} < frontier "
                f"{self._frontier:.6g}: stream is not slab-ordered"
            )

        forest = self._forest
        ll = self.linking_length
        n_r = len(self._ring_group)
        resident_pos = np.concatenate([self._ring_pos, pos])
        self.peak_resident = max(self.peak_resident, len(resident_pos))

        # one periodic pair search over ring + chunk (both already
        # wrapped) finds every new edge, including head-slab links
        # through the x wrap
        comp_inv = link_components(resident_pos, ll, self.box)
        n_comp = int(comp_inv.max()) + 1
        chunk_inv = comp_inv[n_r:]

        # per-component aggregates over the chunk's members
        chunk_counts = np.bincount(chunk_inv, minlength=n_comp).astype(np.int64)
        chunk_min_tag = np.full(n_comp, _NO_TAG, dtype=np.int64)
        np.minimum.at(chunk_min_tag, chunk_inv, tags)

        # attach components to persistent groups through their ring members
        comp_group = np.full(n_comp, -1, dtype=np.intp)
        ring_roots = forest.dsu.find_many(self._ring_group)
        for c, g in zip(comp_inv[:n_r].tolist(), ring_roots.tolist()):
            have = comp_group[c]
            if have < 0:
                comp_group[c] = g
            elif have != g:
                comp_group[c] = forest.union(int(have), g)

        # fresh groups for chunk-only components
        new_comps = np.flatnonzero((comp_group < 0) & (chunk_counts > 0))
        if len(new_comps):
            comp_group[new_comps] = forest.new_groups(len(new_comps))

        # fold this chunk's members into their groups (roots may repeat
        # across components — two ring members of one group can sit in
        # different resident components once their link bridge retired)
        has_chunk = chunk_counts > 0
        if has_chunk.any():
            forest.fold(
                forest.dsu.find_many(comp_group[has_chunk]),
                chunk_counts[has_chunk],
                chunk_min_tag[has_chunk],
            )

        # advance the frontier, then re-filter the ring: tail slab
        # (directly linkable to the future) + head slab (periodic wrap)
        self._frontier = max(self._frontier, float(x.max()))
        resident_x = resident_pos[:, 0]
        keep = (resident_x >= self._frontier - ll) | (resident_x <= ll)
        resident_group = np.concatenate([self._ring_group, comp_group[chunk_inv]])
        resident_group = forest.dsu.find_many(resident_group)
        self._ring_pos = resident_pos[keep].copy()
        kept_groups = resident_group[keep]

        # retire groups with no ring member: no future particle can join
        active = np.unique(kept_groups)
        retired = np.setdiff1d(forest.roots(), active, assume_unique=True)
        if retired.size:
            self._emit(forest.min_tags[retired], forest.counts[retired])
        old_roots = forest.compact(active)
        self._ring_group = np.searchsorted(old_roots, kept_groups)
        self.n_particles += n_c

    def _emit(self, tags: np.ndarray, counts: np.ndarray) -> None:
        """Record one retirement batch (halos only, sorted by tag)."""
        order = np.argsort(tags, kind="stable")
        tags = tags[order]
        counts = counts[order]
        halo = counts >= self.min_count
        tags, counts = tags[halo], counts[halo]
        if not len(tags):
            return
        self._tags_seen.append(tags)
        self._counts_seen.append(counts)
        if self.on_retire is not None:
            self.on_retire(tags, counts)

    def finalize(self) -> StreamedCatalog:
        """Retire everything still active and return the catalog."""
        if not self._closed:
            forest = self._forest
            remaining = forest.roots()
            if remaining.size:
                self._emit(forest.min_tags[remaining], forest.counts[remaining])
            forest.compact(np.empty(0, dtype=np.intp))
            self._ring_pos = np.empty((0, 3), dtype=np.float64)
            self._ring_group = np.empty(0, dtype=np.intp)
            self._closed = True
        if self._tags_seen:
            tags = np.concatenate(self._tags_seen)
            counts = np.concatenate(self._counts_seen)
            order = np.argsort(tags, kind="stable")
            tags, counts = tags[order], counts[order]
        else:
            tags = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        return StreamedCatalog(
            halo_tags=tags,
            halo_counts=counts,
            min_count=self.min_count,
            n_particles=self.n_particles,
        )
