"""Friends-of-friends (FOF) halo identification.

One pair search, three entry points:

``link_components``
    The finder itself: a compiled open k-d tree
    (``scipy.spatial.cKDTree.query_pairs``) emits every pair with
    ``d <= linking_length`` and connected components over those edges
    give a component id per particle.  In a periodic box the rows near
    a low face also enter the tree as images one box up, so the open
    search finds the minimum-image pairs too.  A point alone in the
    2×2×2 block of cells (side just over ``2 * linking_length``) that
    holds all its partners never enters the tree; early snapshots are
    mostly such points.  The paper's serial algorithm (§3.3.1) is the
    same k-d tree traversal; its pure-Python form, the periodic-tree
    search this one replaced and the O(n²) periodic brute force live in
    ``tests/oracles/fof_reference.py`` as the cross-check.

``fof_grid``
    The serial finder: the slab pipeline of
    :class:`~repro.streaming.fof.StreamingFOF` (``link_components`` per
    x-slab piece, on the host's cores) run from memory, with stable
    minimum-tag halo labels and the ``min_count`` cut.  Periodic when
    ``box`` is given.

``parallel_fof``
    The distributed finder: particles live on ranks under a
    :class:`~repro.parallel.decomposition.CartesianDecomposition` with
    overload (ghost) regions wide enough to contain any halo, each rank
    runs ``link_components`` on owned + ghost particles (periodic along
    the process grid's 1-wide axes, which span the box), and halos found
    by multiple ranks are assigned to the unique owner of their
    minimum-tag particle (paper: "the parallel halo finder identifies
    halos found in whole or in part by multiple processes, and assigns
    them to a unique processor").  The catalog is ``fof_grid(box=)``'s
    at every rank count.

Halos below ``min_count`` particles are discarded ("to avoid spurious
identifications, halos with fewer than a specified number of particles
are discarded"); 40 was the production threshold quoted in the paper's
introduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from ..parallel.communicator import Communicator
from ..parallel.decomposition import CartesianDecomposition
from ..parallel.overload import overload_destinations

__all__ = [
    "FOFResult",
    "fof_grid",
    "link_components",
    "wrap_periodic",
    "parallel_fof",
    "halo_groups",
    "DEFAULT_MIN_COUNT",
]

#: Production minimum halo size (paper intro: "billions of halos with 40
#: particles were found").
DEFAULT_MIN_COUNT = 40

#: Rows per chunk of the in-memory slab pass (``fof_grid``).
_CHUNK_ROWS = 1 << 16


@dataclass
class FOFResult:
    """Output of a FOF run.

    ``labels`` assigns every input particle a halo label; particles in
    halos below ``min_count`` get label ``-1``.  Labels are the *minimum
    particle tag* in the halo when tags were supplied, otherwise the
    minimum particle index — a globally stable identifier that every
    finder (serial, grid, parallel) agrees on, making results directly
    comparable.
    """

    labels: np.ndarray
    min_count: int
    halo_tags: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    halo_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_halos(self) -> int:
        return len(self.halo_tags)

    def members(self, halo_tag: int) -> np.ndarray:
        """Indices of the particles in one halo."""
        return np.flatnonzero(self.labels == halo_tag)


def wrap_periodic(pos: np.ndarray, box: float) -> np.ndarray:
    """Positions wrapped to the half-open ``[0, box)`` the tree requires.

    ``np.mod(-1e-17, box)`` rounds to ``box`` itself; that coordinate
    becomes ``0.0`` — the same point under the periodic metric.
    """
    pos = np.mod(pos, box)
    pos[pos >= box] = 0.0
    return pos


def _face_images(
    pos: np.ndarray, linking_length: float, box: float, periodic: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Images one box up of the rows within ``linking_length`` of a low face.

    Only the ``periodic`` axes have faces here.  A row near the low face
    on a set of those axes gets one image per non-empty subset of them,
    shifted by ``box`` along that subset.  Returns the image rows and
    each image's shift as an axis bitmask.
    """
    bits = np.where(periodic, 1 << np.arange(pos.shape[1]), 0)
    low = (pos <= linking_length) @ bits  # bit k: near the low face of periodic axis k
    near = np.flatnonzero(low)
    faces = int(bits.sum())
    subsets = [s for s in range(1, 1 << pos.shape[1]) if (s & faces) == s]
    rows = [near[(low[near] & s) == s] for s in subsets]
    shift = np.repeat(np.asarray(subsets, dtype=np.int64), [len(r) for r in rows])
    return np.concatenate([near[:0], *rows]), shift  # no periodic axis: no image


def _fold_images(pairs: np.ndarray, n: int, rows: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``pairs`` over ``n`` rows and then their images, as pairs of rows.

    Works in place and returns a prefix of ``pairs``: an image end maps
    back to its row, and a pair of two images shifted along a common
    axis is dropped, because it repeats the pair that sits one box lower
    on that axis, which the search found as well.  The last pairs move
    into the holes, so dropping costs no copy of the rest.
    """
    at = np.flatnonzero(pairs[:, 1] >= n)  # pairs (i < j) with an image
    i, j = pairs[at, 0], pairs[at, 1] - n
    both = np.flatnonzero(i >= n)
    pairs[at, 1] = rows[j]
    pairs[at[both], 0] = rows[i[both] - n]
    repeats = at[both[(shift[i[both] - n] & shift[j[both]]) != 0]]  # ascending
    k = len(pairs) - len(repeats)
    tail = np.setdiff1d(np.arange(k, len(pairs)), repeats, assume_unique=True)
    pairs[repeats[: len(tail)]] = pairs[tail]
    return pairs[:k]


def _linkable(
    points: np.ndarray, linking_length: float, images: np.ndarray | None = None
) -> np.ndarray:
    """Indices of the points that may have a partner within ``linking_length``.

    The 2×2×2-block test of :func:`link_components`, over ``points`` and
    then ``images`` (indices run over the two in that order; their
    concatenation is never built).  The cell side is strictly above
    ``2 * linking_length``: at exactly that side the rounding of a cell
    coordinate can put a partner at a tie two cells away.  A sparse
    spread grows the cells, so the uint8 occupancy grid holds at most 16
    cells per point.
    """
    blocks = [b for b in (points, images) if b is not None and len(b)]
    m = sum(len(b) for b in blocks)
    if m < 2:
        return np.empty(0, dtype=np.intp)
    dim = blocks[0].shape[1]
    # column by column: an axis-0 min over the (m, dim) rows is ~10x slower
    lo = np.array([min(b[:, axis].min() for b in blocks) for axis in range(dim)])
    span = np.array([max(b[:, axis].max() for b in blocks) for axis in range(dim)]) - lo
    side = max(2 * linking_length * (1 + 2.0**-12), np.finfo(float).tiny)
    shape = np.floor(span / side) + 3  # a padding cell on either side
    cap = max(16 * m, 3**dim)
    while np.prod(shape) > cap:
        side *= max(np.prod(shape) / cap, 1.0625) ** (1 / dim)
        shape = np.floor(span / side) + 3
    shape = shape.astype(np.int64)
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    own = np.zeros(m, dtype=np.int64)  # flat padded cell of each point
    block = np.zeros(m, dtype=np.int64)  # and the low corner of its block
    ends = np.cumsum([len(b) for b in blocks])
    for axis in range(dim):  # one axis at a time: every temporary is one column
        for b, end in zip(blocks, ends):
            at = slice(end - len(b), end)
            t = (b[:, axis] - lo[axis]) / side
            cell = np.floor(t)
            own[at] += (cell + 1).astype(np.int64) * strides[axis]
            block[at] += (cell + (t - cell >= 0.5)).astype(np.int64) * strides[axis]
    occ = np.zeros(int(np.prod(shape)), dtype=np.uint8)
    np.add.at(occ, own, np.uint8(1))  # counts mod 256
    if occ.sum(dtype=np.int64) != m:  # a cell of 256 or more wrapped: count exactly
        occ = np.bincount(own, minlength=len(occ)).clip(max=2).astype(np.uint8)
    np.minimum(occ, 2, out=occ)  # 0, 1 or more: a block sums to at most 16
    del own
    corners = np.indices((2,) * dim).reshape(dim, -1).T @ strides
    in_block = sum(occ[block + c] for c in corners)
    return np.flatnonzero(in_block > 1)


def link_components(
    pos: np.ndarray,
    linking_length: float,
    box: float | None = None,
    periodic: np.ndarray | None = None,
) -> np.ndarray:
    """Component id per particle of the ``d <= linking_length`` graph.

    The one pair search under every finder: a compiled open k-d tree
    emits the linked pairs and connected components label them with
    dense ids ``0..k-1``.  Only points that may link enter the tree
    (:func:`_linkable`): on cells of side just over ``2 *
    linking_length`` a partner lies less than half a cell away along each
    axis, so in the point's own cell or the next one toward the cell face
    the point is nearer to.  A point alone in that 2×2×2 block has no
    partner and stays a singleton; the pass emits no pair.  With ``box``
    the metric is the minimum image on the ``periodic`` axes (a boolean
    per axis; default every axis), which needs ``pos`` inside ``[0,
    box)`` on them (see :func:`wrap_periodic`); the other axes are open.
    A pair that links through the wrap on a set of axes has, on each of
    them, its lower end within ``linking_length`` of the low face, so
    the tree also holds every such row's images one box up
    (:func:`_face_images`) and image pairs map back to their rows.
    Each pair reaches the graph once; for ``box <= 2 * linking_length``,
    where one pair can link through two images, that takes a dedupe.
    """
    n = len(pos)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    images, rows = None, np.empty(0, dtype=np.intp)
    if box is not None:
        if periodic is None:
            periodic = np.ones(pos.shape[1], dtype=bool)
        rows, shift = _face_images(pos, linking_length, box, periodic)
        if len(rows):
            images = pos[rows]
            images += ((shift[:, None] >> np.arange(pos.shape[1])) & 1) * box
    keep = _linkable(pos, linking_length, images)
    # only the rows that enter the tree are copied, each once
    if images is None:
        points = pos[keep]
    else:
        cut = np.searchsorted(keep, n)
        points = np.empty((len(keep), pos.shape[1]), dtype=pos.dtype)
        np.take(pos, keep[:cut], axis=0, out=points[:cut])
        np.take(images, keep[cut:] - n, axis=0, out=points[cut:])
    del images
    # midpoint splits and unshrunk nodes: a cheaper build, no slower a search
    pairs = cKDTree(points, balanced_tree=False, compact_nodes=False).query_pairs(
        linking_length, output_type="ndarray"
    )
    del points
    keep.take(pairs, out=pairs, mode="clip")  # tree indices back to points, in place
    if len(rows):
        pairs = _fold_images(pairs, n, rows, shift)
        if box <= 2 * linking_length:  # one pair may link through two images
            pairs = np.unique(np.sort(pairs, axis=1), axis=0)
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # and a row to its own image
    # int32 edges (what the graph stores), the int64 pairs freed first
    edges = pairs.T.astype(np.int32 if n < 2**31 else np.intp)
    del pairs
    # Every pair comes once, so the COO is marked canonical and its CSR
    # conversion skips the per-row sort and duplicate sum: nothing to
    # sum, and row order does not matter to components.  The weights
    # turn float64 on the CSR, because csgraph's own cast would sort and
    # deduplicate again.
    graph = coo_matrix((np.ones(edges.shape[1], dtype=np.int8), tuple(edges)), shape=(n, n))
    del edges
    graph.has_canonical_format = True
    graph = graph.tocsr()
    graph.data = graph.data.astype(np.float64)
    _, roots = connected_components(graph, directed=False)
    return np.asarray(roots, dtype=np.intp)


def fof_grid(
    pos: np.ndarray,
    linking_length: float,
    tags: np.ndarray | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    box: float | None = None,
) -> FOFResult:
    """Serial FOF; periodic (minimum-image metric) when ``box`` is given.

    Two particles are friends iff their distance is ``<= linking_length``.
    The slab pipeline of :class:`~repro.streaming.fof.StreamingFOF` run
    from memory: one sort by x, then chunks of ``_CHUNK_ROWS`` rows (one
    chunk up to twice that) whose slab pieces link on the host's cores.
    """
    from ..streaming.fof import StreamingFOF  # which imports this module

    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    ids = np.arange(n, dtype=np.int64) if tags is None else np.asarray(tags, dtype=np.int64)
    if box is not None and n and not (pos.min() >= 0.0 and pos.max() < box):
        pos = wrap_periodic(pos, box)
    order = np.argsort(pos[:, 0])  # ties in x change no component
    pos, ids = np.take(pos, order, axis=0), ids[order]  # take: 2-3x faster than pos[order]
    finder = StreamingFOF(box, linking_length, min_count, labels=True)
    rows = _CHUNK_ROWS if n > 2 * _CHUNK_ROWS else max(n, 1)
    for lo in range(0, n, rows):
        finder.ingest(pos[lo : lo + rows], ids[lo : lo + rows])
    catalog = finder.finalize()
    labels = np.empty(n, dtype=np.int64)
    labels[order] = catalog.labels
    return FOFResult(labels, min_count, catalog.halo_tags, catalog.halo_counts)


def halo_groups(result: FOFResult) -> dict[int, np.ndarray]:
    """Mapping halo tag -> member particle indices (halos only, no fluff)."""
    out: dict[int, np.ndarray] = {}
    order = np.argsort(result.labels, kind="stable")
    sl = result.labels[order]
    starts = np.flatnonzero(np.concatenate([[True], sl[1:] != sl[:-1]])) if len(sl) else []
    bounds = [*starts, len(sl)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        tag = sl[s]
        if tag >= 0:
            out[int(tag)] = order[s:e]
    return out


# ---------------------------------------------------------------------------
# distributed FOF
# ---------------------------------------------------------------------------


def parallel_fof(
    comm: Communicator,
    decomp: CartesianDecomposition,
    pos: np.ndarray,
    tags: np.ndarray,
    linking_length: float,
    overload_width: float,
    min_count: int = DEFAULT_MIN_COUNT,
) -> dict[int, np.ndarray]:
    """Distributed FOF over rank-local particles with overload regions.

    Parameters
    ----------
    comm, decomp:
        SPMD communicator and the domain decomposition (one sub-box per
        rank; ``pos`` must already be the rank's *owned* particles).
    pos, tags:
        This rank's owned particle positions (box coordinates) and
        globally unique tags.
    linking_length, overload_width:
        FOF linking length and ghost-region width.  Correctness requires
        ``overload_width`` to be at least the largest halo's spatial
        extent (the paper's stated assumption).
    Returns
    -------
    dict mapping halo tag (min particle tag) -> member particle tags,
    for the halos *owned* by this rank.  Each halo appears on exactly one
    rank, with its complete membership.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    tags = np.asarray(tags, dtype=np.int64)
    n_owned = len(pos)

    # 1. ghost exchange: send boundary particles to the neighbors along
    #    the axes the process grid splits (a rank sends itself nothing)
    plan = overload_destinations(decomp, comm.rank, pos, overload_width)
    send: list[dict[str, np.ndarray]] = []
    for dest in range(comm.size):
        if dest in plan:
            idx, shift = plan[dest]
            send.append({"pos": pos[idx] + shift, "tag": tags[idx]})
        else:
            send.append({"pos": pos[:0], "tag": tags[:0]})
    received = comm.alltoall(send)
    all_pos = np.concatenate([pos, *(chunk["pos"] for chunk in received)])
    all_tag = np.concatenate([tags, *(chunk["tag"] for chunk in received)])

    # 2. local link on owned + ghost particles.  A 1-wide axis of the
    #    process grid spans the whole box, so the link wraps it itself;
    #    the split axes are open (the ghosts carry their images).  With
    #    overload_width under half a sub-box, each particle reaches a rank
    #    at most once, so every row carries a distinct tag.
    periodic = np.asarray(decomp.dims) == 1
    for axis in np.flatnonzero(periodic):
        all_pos[:, axis] = wrap_periodic(all_pos[:, axis], decomp.box)
    roots = link_components(
        all_pos, linking_length, decomp.box if periodic.any() else None, periodic
    )
    del all_pos

    # 3. ownership, in one pass over the rows: a component is this rank's
    #    iff its minimum tag sits on an owned row.  Its label is that tag.
    counts = np.bincount(roots)
    owned_min = np.full(len(counts), np.iinfo(np.int64).max)
    ghost_min = owned_min.copy()
    np.minimum.at(owned_min, roots[:n_owned], tags)
    np.minimum.at(ghost_min, roots[n_owned:], all_tag[n_owned:])
    mine = (counts >= min_count) & (owned_min <= ghost_min)
    rows = np.flatnonzero(mine[roots])
    # one sort over the owned halos' rows: by halo, members by tag
    halo, member = owned_min[roots[rows]], all_tag[rows]
    order = np.lexsort((member, halo))
    halo, member = halo[order], member[order]
    starts = np.flatnonzero(np.diff(halo, prepend=halo[:1] - 1))
    return {
        int(halo[s]): members for s, members in zip(starts, np.split(member, starts[1:]))
    }
