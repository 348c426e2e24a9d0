"""Balanced k-d tree over particle positions.

The paper's serial FOF "constructs and then recursively traverses a
balanced k-d tree ... At higher levels of the tree, bounding boxes which
define the space covered by the subtree rooted at a node are used to
reduce the number of particle-to-particle distance comparisons, allowing
whole subtrees to be merged into a halo or excluded from a halo at once"
(§3.3.1).

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

    # -- queries --------------------------------------------------------------

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

    def leaf_points(self, node_id: int) -> np.ndarray:
        """Original point indices covered by ``node_id``."""
        node = self.nodes[node_id]
        return self.index[node.start : node.end]

    def query_radius(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center``."""
        if not self.nodes:
            return np.empty(0, dtype=np.intp)
        center = np.asarray(center, dtype=float)
        out: list[np.ndarray] = []
        stack = [0]
        r2 = radius * radius
        while stack:
            node = self.nodes[stack.pop()]
            if _box_min_dist_sq(center, node.lo, node.hi) > r2:
                continue
            if _box_max_dist_sq(center, node.lo, node.hi) <= r2:
                out.append(self.index[node.start : node.end])
                continue
            if node.is_leaf:
                idx = self.index[node.start : node.end]
                d2 = np.sum((self.points[idx] - center) ** 2, axis=1)
                out.append(idx[d2 <= r2])
            else:
                stack.append(node.left)
                stack.append(node.right)
        if not out:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(out)


    def query_knn(self, center: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest points to ``center``: ``(indices, distances)``.

        Best-first branch-and-bound traversal; distances ascending.
        """
        import heapq

        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.nodes:
            return np.empty(0, dtype=np.intp), np.empty(0)
        center = np.asarray(center, dtype=float)
        k = min(k, len(self.points))

        # max-heap of the current k best (negated distance)
        best: list[tuple[float, int]] = []
        # min-heap of nodes by optimistic distance
        frontier: list[tuple[float, int]] = [(0.0, 0)]
        while frontier:
            gap, node_id = heapq.heappop(frontier)
            if len(best) == k and gap > -best[0][0]:
                break
            node = self.nodes[node_id]
            if node.is_leaf:
                idx = self.index[node.start : node.end]
                d2 = np.sum((self.points[idx] - center) ** 2, axis=1)
                for d, i in zip(np.sqrt(d2), idx):
                    if len(best) < k:
                        heapq.heappush(best, (-d, int(i)))
                    elif d < -best[0][0]:
                        heapq.heapreplace(best, (-d, int(i)))
            else:
                for child in (node.left, node.right):
                    cn = self.nodes[child]
                    cgap = np.sqrt(_box_min_dist_sq(center, cn.lo, cn.hi))
                    if len(best) < k or cgap < -best[0][0]:
                        heapq.heappush(frontier, (cgap, child))
        best.sort(key=lambda t: -t[0])
        dists = np.asarray([-d for d, _ in best])
        idxs = np.asarray([i for _, i in best], dtype=np.intp)
        return idxs, dists


def _box_min_dist_sq(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Squared distance from point ``p`` to the nearest point of a box."""
    d = np.maximum(np.maximum(lo - p, 0.0), p - hi)
    return float(np.dot(d, d))


def _box_max_dist_sq(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Squared distance from point ``p`` to the farthest point of a box."""
    d = np.maximum(np.abs(p - lo), np.abs(p - hi))
    return float(np.dot(d, d))
