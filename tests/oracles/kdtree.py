"""Balanced k-d tree over particle positions: the FOF oracle's index.

The paper's serial FOF "constructs and then recursively traverses a
balanced k-d tree ... At higher levels of the tree, bounding boxes which
define the space covered by the subtree rooted at a node are used to
reduce the number of particle-to-particle distance comparisons, allowing
whole subtrees to be merged into a halo or excluded from a halo at once"
(§3.3.1).  Production FOF searches a compiled ``cKDTree``; this tree is
what :func:`tests.oracles.fof_reference.fof_kdtree` walks.

The tree here is array-based (no per-node Python objects beyond slices):
nodes are stored in preorder, each carrying its bounding box and the
half-open range of the permuted point index it covers.  Leaves hold up to
``leaf_size`` points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KDTree", "KDNode"]


@dataclass(frozen=True)
class KDNode:
    """One node: bounding box + covered slice of the permuted index."""

    start: int
    end: int  # half-open
    lo: np.ndarray  # (3,) bounding box min
    hi: np.ndarray  # (3,) bounding box max
    left: int  # child node id, -1 for leaf
    right: int

    @property
    def is_leaf(self) -> bool:
        return self.left < 0

    @property
    def count(self) -> int:
        return self.end - self.start


class KDTree:
    """Balanced k-d tree (median split on the widest axis).

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates.
    leaf_size:
        Maximum points per leaf.

    Attributes
    ----------
    index:
        Permutation of ``0..n-1``; ``points[index[node.start:node.end]]``
        are the points covered by a node.
    nodes:
        List of :class:`KDNode` in construction order; ``nodes[0]`` is the
        root.
    """

    def __init__(self, points: np.ndarray, leaf_size: int = 16):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = points
        self.leaf_size = leaf_size
        n = len(points)
        self.index = np.arange(n, dtype=np.intp)
        self.nodes: list[KDNode] = []
        if n:
            self._build(0, n)

    def _build(self, start: int, end: int) -> int:
        """Build the subtree covering ``index[start:end]``; returns node id."""
        pts = self.points[self.index[start:end]]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        node_id = len(self.nodes)
        self.nodes.append(None)  # type: ignore[arg-type]  # placeholder

        if end - start <= self.leaf_size:
            self.nodes[node_id] = KDNode(start, end, lo, hi, -1, -1)
            return node_id

        axis = int(np.argmax(hi - lo))
        mid = (start + end) // 2
        # partial sort: median split keeps the tree balanced
        seg = self.index[start:end]
        order = np.argpartition(self.points[seg, axis], mid - start)
        self.index[start:end] = seg[order]

        left = self._build(start, mid)
        right = self._build(mid, end)
        self.nodes[node_id] = KDNode(start, end, lo, hi, left, right)
        return node_id

    # -- structure -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        if not self.nodes:
            return -1

        def rec(i: int) -> int:
            node = self.nodes[i]
            if node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(0)
