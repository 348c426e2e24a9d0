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
  link forces ``px <= ll``.  In an open box (``box=None``) there is no
  wrap and no head slab.
* Per slab piece, one :func:`~repro.analysis.fof.link_components` call
  over ``ring + piece`` finds every new edge (the periodic metric links
  the head slab to late pieces with no extra pass), and components are
  merged into persistent groups through a
  :class:`~repro.analysis.union_find.GrowableDisjointSet`.  A piece
  inside ``(2 ll, box - ll)`` is more than ``ll`` from the head slab,
  directly and through the wrap, so its call leaves the head slab out:
  the links of those rows are already held by their groups.
* A group with no remaining ring member can never gain another
  particle; it is *retired* — its ``(min tag, count)`` pair emitted —
  and the forest compacted, so resident state is
  O(chunk + ring + active groups).

Membership is exact by the argument above, so the catalog is the same
for any chunk size, and a halo is named by its minimum particle tag.
Asked for ``labels``, the finder also keeps each particle's component
until its group retires and returns every particle's halo tag — how
:func:`~repro.analysis.fof.fof_grid` runs this pipeline from memory.

The ring filter reads positions only, so the pass is a bounded-lag
pipeline (``docs/streaming.md``, "Memory model"): the caller *plans*
each chunk into at most ``W`` slab pieces (:func:`link_width`), a pool
of ``W`` threads *links* them, and the caller *merges* them in stream
order, retiring once per chunk — so the output is the same at every
``W``, with at most ``chunk_rows + W * ring`` particles in flight.

The link is the one compiled pair search (``link_components``: a k-d
tree over the resident particles, memory proportional to ring + piece);
a piece of fewer than ``_POOL_ROWS`` resident rows links on the caller,
so a small pass never starts the pool.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.fof import DEFAULT_MIN_COUNT, link_components, wrap_periodic
from ..analysis.union_find import GrowableDisjointSet
from ..exec.engine import default_workers as link_width  # link-stage width W
from ..obs import get_recorder

__all__ = ["StreamOrderError", "StreamedCatalog", "StreamingFOF", "GroupForest", "link_width"]

_NO_TAG = np.iinfo(np.int64).max

#: A piece with fewer resident rows links on the caller: starting the pool
#: costs about 1 ms, as much as linking a few hundred rows.
_POOL_ROWS = 256


class StreamOrderError(ValueError):
    """The stream violated the slab-order (non-decreasing x) contract."""


@dataclass(frozen=True)
class StreamedCatalog:
    """Halo catalog from a streamed run: ``(min tag, count)`` per halo.

    ``halo_tags``/``halo_counts`` are sorted by tag and bit-comparable
    to :class:`~repro.analysis.fof.FOFResult` on the same particles.
    ``labels`` (only from a finder asked for them) is each particle's
    halo tag, ``-1`` outside halos, in the order the particles arrived.
    """

    halo_tags: np.ndarray
    halo_counts: np.ndarray
    min_count: int
    n_particles: int
    labels: np.ndarray | None = None

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
        n = len(self)
        # float64 weights sum integer counts exactly (far below 2**53)
        self.counts[:n] += np.bincount(roots, weights=counts, minlength=n).astype(np.int64)
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


@dataclass
class _Piece:
    """One planned slab piece, from its hand-off to the pool to its merge."""

    tags: np.ndarray  # the piece's own particles, in resident order
    at: slice | np.ndarray | None  # and their arrival rows, kept for labels
    keep: np.ndarray  # resident rows the ring keeps after this piece
    rows: int  # resident rows (ring + piece)
    last: bool  # the chunk's last piece: retirement follows its merge
    links: Future  # component id per resident row


class StreamingFOF:
    """Incremental FOF over slab-ordered chunks (periodic box, or open
    with ``box=None``).

    Feed chunks with :meth:`ingest`; call :meth:`finalize` for the
    catalog, with per-particle ``labels`` when built with
    ``labels=True``.  ``on_retire(tags, counts)`` fires whenever halos
    (groups with ``count >= min_count``) become final — the hook the one-pass
    accumulators fold; retirement order is deterministic (sorted by tag
    within each batch, at most one batch per chunk, batches in stream
    order) and independent of the link width.

    The link pool starts with the first piece of ``_POOL_ROWS`` resident
    rows or more and stops in :meth:`finalize`, or in :meth:`close`,
    which abandons the pass; a failing ingest closes it too.  Link spans
    parent under the span that was open when the finder was built.
    """

    def __init__(
        self,
        box: float | None,
        linking_length: float,
        min_count: int = DEFAULT_MIN_COUNT,
        on_retire: Callable[[np.ndarray, np.ndarray], None] | None = None,
        *,
        labels: bool = False,
    ):
        if box is not None and box <= 0:
            raise ValueError("box must be positive")
        if not 0 < linking_length < (np.inf if box is None else box):
            raise ValueError("need 0 < linking_length < box")
        self.box = None if box is None else float(box)
        self.linking_length = float(linking_length)
        self.min_count = int(min_count)
        self.on_retire = on_retire
        self._width = link_width()
        self._trace = get_recorder().trace_context()
        self._pool: ThreadPoolExecutor | None = None
        self._in_flight: deque[_Piece] = deque()
        self._largest_chunk = 0
        # plan state: positions only
        self._ring_pos = np.empty((0, 3), dtype=np.float64)
        self._frontier = -np.inf
        # merge state
        self._forest = GroupForest()
        self._ring_group = np.empty(0, dtype=np.intp)
        self._done_tags: list[np.ndarray] = []  # complete components awaiting retirement
        self._done_counts: list[np.ndarray] = []
        self._tags_seen: list[np.ndarray] = []  # only retired outputs, not members
        self._counts_seen: list[np.ndarray] = []
        # label state: each piece's arrival rows and their component ids
        # (numbered across the pass), each component's minimum tag, and
        # the components whose group is still active, with its slot
        self._labels = labels
        self._row_comps: list[tuple[slice | np.ndarray, np.ndarray]] = []
        self._comp_tags: list[np.ndarray] = []
        self._retired_comps: list[tuple[np.ndarray, np.ndarray]] = []
        self._n_comps = 0
        self._open_comps = np.empty(0, dtype=np.int64)
        self._open_slots = np.empty(0, dtype=np.intp)
        self._catalog: StreamedCatalog | None = None
        self._closed = False
        self.n_particles = 0
        self.n_chunks = 0
        self.peak_resident = 0

    # -- the per-chunk step -------------------------------------------------

    def ingest(self, pos: np.ndarray, tags: np.ndarray) -> None:
        """Plan one slab-ordered chunk and hand its pieces to the link pool.

        Returns once all but the last ``W`` planned pieces are merged;
        :meth:`finalize` drains the rest.
        """
        if self._closed:
            raise RuntimeError("finalize() or close() already called")
        pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
        tags = np.array(tags, dtype=np.int64)  # a copy: pieces outlive this call
        n_c = len(pos)
        if len(tags) != n_c:
            raise ValueError("tags length mismatch")
        self.n_chunks += 1
        if n_c == 0:
            return
        if self.box is not None and not (pos.min() >= 0.0 and pos.max() < self.box):
            pos = wrap_periodic(pos, self.box)  # slab snapshots are wrapped
        try:
            self._plan(pos, tags)
        except BaseException:
            self.close()
            raise
        self.n_particles += n_c

    def _plan(self, pos: np.ndarray, tags: np.ndarray) -> None:
        x = pos[:, 0]
        xmin = float(x.min())
        if xmin < self._frontier:
            raise StreamOrderError(
                f"chunk {self.n_chunks - 1} min x {xmin:.6g} < frontier "
                f"{self._frontier:.6g}: stream is not slab-ordered"
            )
        order = None
        if np.any(x[1:] < x[:-1]):  # pieces are x slabs, so sort inside the chunk
            order = np.argsort(x, kind="stable")
            pos, tags = pos[order], tags[order]
        n_c, n_0 = len(pos), self.n_particles
        self._largest_chunk = max(self._largest_chunk, n_c)
        n_pieces = max(1, min(self._width, n_c // max(len(self._ring_pos), 1)))
        cuts = [n_c * i // n_pieces for i in range(n_pieces + 1)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            # make room: at most W pieces in flight, with one chunk's particles
            while self._in_flight and (
                len(self._in_flight) >= self._width
                or hi - lo + sum(len(p.tags) for p in self._in_flight) > self._largest_chunk
            ):
                self._merge(self._in_flight.popleft())
            at = None
            if self._labels:
                at = slice(n_0 + lo, n_0 + hi) if order is None else n_0 + order[lo:hi]
            self._submit(pos[lo:hi], tags[lo:hi], at, last=hi == n_c)

    def _submit(
        self, pos: np.ndarray, tags: np.ndarray, at: slice | np.ndarray | None, last: bool
    ) -> None:
        """Frontier advance, ring filter and resident set; link on the pool."""
        ll, box = self.linking_length, self.box
        resident = np.concatenate([self._ring_pos, pos])
        # resident rows are in stream order, so ascending x: the head slab
        # (x <= ll) leads.  A piece inside (2 ll, box - ll) is more than ll
        # from it directly and through the x wrap, so it is left out
        head = 0
        if box is not None and pos[0, 0] > 2 * ll and pos[-1, 0] < box - ll:
            head = int(np.searchsorted(self._ring_pos[:, 0], ll, side="right"))
        self._frontier = max(self._frontier, float(pos[-1, 0]))
        x = resident[:, 0]
        keep = x >= self._frontier - ll
        if box is not None:
            keep |= x <= ll
        self._ring_pos = resident[keep]
        links: Future = Future()
        if len(resident) < _POOL_ROWS:
            links.set_result(self._link(resident, head))
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    self._width, thread_name_prefix="stream-link", initializer=self._start_lane
                )
            links = self._pool.submit(self._link, resident, head)
        self._in_flight.append(_Piece(tags, at, keep, len(resident), last, links))
        self.peak_resident = max(self.peak_resident, sum(p.rows for p in self._in_flight))

    def _start_lane(self) -> None:
        """Pool initializer: ``stream-link_N`` workers trace on
        ``stream-link-N`` lanes, under the span open at construction."""
        thread = threading.current_thread()
        thread.name = thread.name.replace("_", "-")
        get_recorder().bind_thread(self._trace)

    def _link(self, resident: np.ndarray, head: int) -> np.ndarray:
        """The link stage: one pair search over ring + piece (both already
        wrapped) past the first ``head`` rows finds every new edge,
        including head-slab links through the x wrap.  The rows left out
        get singleton components: their links so far are already held by
        their groups."""
        with get_recorder().span("stream.link", rows=len(resident) - head):
            links = link_components(resident[head:], self.linking_length, self.box)
        return np.concatenate([np.arange(head), head + links]) if head else links

    def _merge(self, piece: _Piece) -> None:
        """The merge stage, on the caller's thread in stream order."""
        comp_inv = piece.links.result()
        with get_recorder().span("stream.merge", rows=piece.rows):
            forest = self._forest
            n_r = len(self._ring_group)
            n_comp = int(comp_inv.max()) + 1
            ring_inv, own_inv = comp_inv[:n_r], comp_inv[n_r:]

            # per-component aggregates over the piece's own members
            counts = np.bincount(own_inv, minlength=n_comp).astype(np.int64)
            min_tag = np.full(n_comp, _NO_TAG, dtype=np.int64)
            np.minimum.at(min_tag, own_inv, piece.tags)

            # attach components to persistent groups through their old-ring
            # members: any member's group names the component, the others
            # union into it
            comp_group = np.full(n_comp, -1, dtype=np.intp)
            ring_roots = forest.dsu.find_many(self._ring_group)
            comp_group[ring_inv] = ring_roots
            for i in np.flatnonzero(comp_group[ring_inv] != ring_roots).tolist():
                c = ring_inv[i]
                comp_group[c] = forest.union(int(comp_group[c]), int(ring_roots[i]))

            # a component born here with no member in the new ring is
            # complete: it retires from the aggregates, never touching the
            # forest; the rest of the newborns become groups
            kept_inv = comp_inv[piece.keep]
            ringed = np.zeros(n_comp, dtype=bool)
            ringed[kept_inv] = True
            born = comp_group < 0
            done = born & ~ringed
            self._done_tags.append(min_tag[done])
            self._done_counts.append(counts[done])
            grow = born & ringed
            comp_group[grow] = forest.new_groups(int(np.count_nonzero(grow)))

            # fold the piece's members into their groups (roots may repeat
            # across components — two ring members of one group can sit in
            # different resident components once their link bridge left)
            grouped = ~done
            roots = forest.dsu.find_many(comp_group[grouped])
            forest.fold(roots, counts[grouped], min_tag[grouped])
            comp_group[grouped] = roots
            self._ring_group = comp_group[kept_inv]
            if self._labels:
                first = self._n_comps
                self._n_comps += n_comp
                self._row_comps.append((piece.at, first + own_inv))
                self._comp_tags.append(min_tag)  # final for the done components
                active = np.flatnonzero(grouped & (counts > 0))
                self._open_comps = np.concatenate([self._open_comps, first + active])
                self._open_slots = np.concatenate([self._open_slots, comp_group[active]])
            if piece.last:
                self._retire()

    def _retire(self) -> None:
        """End of a chunk: retire groups with no ring member — no future
        particle can join them — and compact the forest behind them."""
        forest = self._forest
        in_ring = np.zeros(len(forest), dtype=bool)
        in_ring[self._ring_group] = True
        roots = forest.roots()
        gone = roots[~in_ring[roots]]
        self._emit(
            np.concatenate([forest.min_tags[gone], *self._done_tags]),
            np.concatenate([forest.counts[gone], *self._done_counts]),
        )
        self._done_tags, self._done_counts = [], []
        if self._labels:  # a retired group names its components by its minimum tag
            slots = forest.dsu.find_many(self._open_slots)
            out = ~in_ring[slots]
            self._retired_comps.append((self._open_comps[out], forest.min_tags[slots[out]]))
            self._open_comps, self._open_slots = self._open_comps[~out], slots[~out]
        old_roots = forest.compact(roots[in_ring[roots]])
        self._ring_group = np.searchsorted(old_roots, self._ring_group)
        self._open_slots = np.searchsorted(old_roots, self._open_slots)

    def _emit(self, tags: np.ndarray, counts: np.ndarray) -> None:
        """Record one retirement batch (halos only, sorted by tag)."""
        halo = counts >= self.min_count
        tags, counts = tags[halo], counts[halo]
        if not len(tags):
            return
        order = np.argsort(tags, kind="stable")
        tags, counts = tags[order], counts[order]
        self._tags_seen.append(tags)
        self._counts_seen.append(counts)
        if self.on_retire is not None:
            self.on_retire(tags, counts)

    def finalize(self) -> StreamedCatalog:
        """Drain the pipeline, retire everything still active and return
        the catalog (idempotent)."""
        if self._catalog is not None:
            return self._catalog
        if self._closed:
            raise RuntimeError("close() abandoned the pass before finalize()")
        try:
            while self._in_flight:
                self._merge(self._in_flight.popleft())
        finally:
            self.close()
        self._ring_group = np.empty(0, dtype=np.intp)  # the stream is over
        self._retire()
        tags = np.concatenate([np.empty(0, dtype=np.int64), *self._tags_seen])
        counts = np.concatenate([np.empty(0, dtype=np.int64), *self._counts_seen])
        order = np.argsort(tags, kind="stable")
        tags, counts = tags[order], counts[order]
        self._catalog = StreamedCatalog(
            tags, counts, self.min_count, self.n_particles, self._final_labels(tags)
        )
        return self._catalog

    def _final_labels(self, halo_tags: np.ndarray) -> np.ndarray | None:
        """Each particle's component tag where a halo carries it, else ``-1``."""
        if not self._labels:
            return None
        comp_tags = np.concatenate([np.empty(0, dtype=np.int64), *self._comp_tags])
        for comps, tags in self._retired_comps:
            comp_tags[comps] = tags
        # with repeated tags a small component can share a kept halo's tag: it keeps it
        comp_tags[~np.isin(comp_tags, halo_tags)] = -1
        labels = np.empty(self.n_particles, dtype=np.int64)
        for at, comps in self._row_comps:
            labels[at] = comp_tags[comps]
        return labels

    def close(self) -> None:
        """Stop the link pool and join its threads; pieces not yet merged
        are dropped, so only a finished pass can still be read."""
        self._closed = True
        self._in_flight.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
