"""Test oracles: the two FOF finders production code is checked against.

``fof_kdtree`` is the paper's serial algorithm (§3.3.1) written out in
Python — build a balanced k-d tree and recursively merge, using subtree
bounding boxes to merge or exclude whole subtrees at once; open
(non-periodic) boxes only.  ``fof_periodic_tree`` is the compiled
periodic-tree search (``cKDTree(boxsize=)``) the production finder ran
before it moved to an open tree with face images.  ``_fof_brute_periodic``
is the O(n²) all-pairs finder under the minimum-image metric (positions
need not be wrapped), over ``link_brute``: an all-pairs stand-in for
:func:`repro.analysis.fof.link_components` with its signature, the
minimum image on the ``periodic`` axes only.  They share only the label
convention with the production finder (a halo is named by its minimum
tag), none of the pair search.

``finalize_reference`` turns component ids into that convention by one
stable sort over the rows (segment minima, ``isin`` over every row); the
oracles above label their components through it.

``catalog_sha256`` is the digest the benchmarks compare catalogs by.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro.analysis.fof import DEFAULT_MIN_COUNT, FOFResult
from repro.analysis.union_find import DisjointSet
from tests.oracles.kdtree import KDTree

__all__ = [
    "fof_kdtree",
    "fof_periodic_tree",
    "_fof_brute_periodic",
    "link_brute",
    "catalog_sha256",
    "finalize_reference",
]


def catalog_sha256(*arrays) -> str:
    """SHA-256 over the int64 bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def finalize_reference(roots: np.ndarray, tags: np.ndarray | None, min_count: int) -> FOFResult:
    """Component ids to halo labels by one stable sort over the rows."""
    n = len(roots)
    ids = np.arange(n, dtype=np.int64) if tags is None else np.asarray(tags, dtype=np.int64)
    order = np.argsort(roots, kind="stable")
    sroots = roots[order]
    boundaries = np.empty(n, dtype=bool)
    if n:
        boundaries[0] = True
        boundaries[1:] = sroots[1:] != sroots[:-1]
    seg = np.cumsum(boundaries) - 1 if n else np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(boundaries)
    min_ids = np.minimum.reduceat(ids[order], starts) if n else np.empty(0, np.int64)
    counts = np.diff(np.append(starts, n)) if n else np.empty(0, np.intp)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = min_ids[seg]
    keep = counts >= min_count
    kept_tags = min_ids[keep]
    labels[~np.isin(labels, kept_tags)] = -1
    srt = np.argsort(kept_tags)
    return FOFResult(
        labels=labels,
        min_count=min_count,
        halo_tags=kept_tags[srt],
        halo_counts=counts[keep][srt].astype(np.int64),
    )


def box_gap_sq(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray) -> float:
    """Squared minimum distance between two axis-aligned boxes."""
    d = np.maximum(np.maximum(lo_a - hi_b, 0.0), lo_b - hi_a)
    return float(np.dot(d, d))


def box_span_sq(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray) -> float:
    """Squared maximum distance between two axis-aligned boxes."""
    d = np.maximum(np.abs(hi_a - lo_b), np.abs(hi_b - lo_a))
    return float(np.dot(d, d))


def fof_kdtree(
    pos: np.ndarray,
    linking_length: float,
    tags: np.ndarray | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    leaf_size: int = 8,
) -> FOFResult:
    """Serial FOF via recursive traversal of a balanced k-d tree.

    Non-periodic (HACC applies it per rank to overloaded local volumes;
    periodicity is handled by the ghost images at the parallel layer).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n == 0:
        return finalize_reference(np.empty(0, dtype=np.intp), tags, min_count)
    tree = KDTree(pos, leaf_size=leaf_size)
    dsu = DisjointSet(n)
    ll2 = linking_length * linking_length

    def process(node_id: int) -> None:
        node = tree.nodes[node_id]
        if node.is_leaf:
            idx = tree.index[node.start : node.end]
            if len(idx) > 1:
                d2 = np.sum((pos[idx][:, None, :] - pos[idx][None, :, :]) ** 2, axis=-1)
                ii, jj = np.nonzero(np.triu(d2 <= ll2, k=1))
                for a, b in zip(idx[ii], idx[jj]):
                    dsu.union(int(a), int(b))
            return
        process(node.left)
        process(node.right)
        merge(node.left, node.right)

    def merge(na: int, nb: int) -> None:
        a = tree.nodes[na]
        b = tree.nodes[nb]
        if box_gap_sq(a.lo, a.hi, b.lo, b.hi) > ll2:
            return  # whole subtrees excluded at once
        if box_span_sq(a.lo, a.hi, b.lo, b.hi) <= ll2:
            # every cross pair is a link: merge both subtrees wholesale
            ia = tree.index[a.start : a.end]
            ib = tree.index[b.start : b.end]
            anchor = int(ia[0])
            for x in ia[1:]:
                dsu.union(anchor, int(x))
            for x in ib:
                dsu.union(anchor, int(x))
            return
        if a.is_leaf and b.is_leaf:
            ia = tree.index[a.start : a.end]
            ib = tree.index[b.start : b.end]
            d2 = np.sum((pos[ia][:, None, :] - pos[ib][None, :, :]) ** 2, axis=-1)
            ii, jj = np.nonzero(d2 <= ll2)
            for x, y in zip(ia[ii], ib[jj]):
                dsu.union(int(x), int(y))
            return
        # recurse into the children of the larger (or non-leaf) node
        if a.is_leaf or (not b.is_leaf and b.count > a.count):
            merge(na, b.left)
            merge(na, b.right)
        else:
            merge(a.left, nb)
            merge(a.right, nb)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        process(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return finalize_reference(dsu.labels(), tags, min_count)


def fof_periodic_tree(
    pos: np.ndarray,
    ll: float,
    box: float,
    tags: np.ndarray | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
) -> FOFResult:
    """Periodic FOF on a minimum-image k-d tree (``pos`` inside ``[0, box)``)."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n == 0:
        return finalize_reference(np.empty(0, dtype=np.intp), tags, min_count)
    pairs = cKDTree(pos, boxsize=box).query_pairs(ll, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, roots = connected_components(graph, directed=False)
    return finalize_reference(np.asarray(roots, dtype=np.intp), tags, min_count)


def link_brute(
    pos: np.ndarray,
    ll: float,
    box: float | None = None,
    periodic: np.ndarray | None = None,
) -> np.ndarray:
    """Component id per row of the ``d <= ll`` graph, every pair tested.

    ``link_components``' contract: with ``box`` the distance is the
    minimum image on the ``periodic`` axes (default every axis) and open
    on the others.  Rows are compared a block at a time, so memory stays
    O(block · n).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    wrap = np.zeros(pos.shape[1], dtype=bool)
    if box is not None:
        wrap[:] = True if periodic is None else periodic
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, n, 256):
        d = pos[lo : lo + 256, None, :] - pos[None, :, :]
        if wrap.any():
            dw = d[..., wrap]
            d[..., wrap] = dw - box * np.round(dw / box)
        i, j = np.nonzero(np.sum(d * d, axis=-1) <= ll * ll)
        rows.append(i + lo)
        cols.append(j)
    i, j = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    _, roots = connected_components(graph, directed=False)
    return np.asarray(roots, dtype=np.intp)


def _fof_brute_periodic(
    pos: np.ndarray, ll: float, box: float, tags: np.ndarray | None, min_count: int
) -> FOFResult:
    """O(n²) periodic FOF: every pair under the minimum-image metric."""
    return finalize_reference(link_brute(pos, ll, box), tags, min_count)
