"""Disjoint-set (union-find) forests used by the FOF halo finders.

Friends-of-friends halo identification is connected components of the
proximity graph (paper §3.3.1); the component bookkeeping here is a
classic array-backed union-by-size forest with path halving, plus bulk
helpers for labeling all elements at once.

Two variants share the same core:

:class:`DisjointSet`
    Fixed universe ``0..n-1``, used by the in-memory finders where the
    particle count is known up front.

:class:`GrowableDisjointSet`
    The universe grows as elements arrive and can be *compacted* down to
    a chosen set of surviving roots — the shape the one-pass streaming
    halo finder needs, where group slots are created per chunk and
    retired groups must release their storage so the forest stays
    O(active groups) rather than O(all groups ever seen).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DisjointSet", "GrowableDisjointSet"]


class DisjointSet:
    """Union-find over the integers ``0..n-1``.

    Amortized near-constant ``find``/``union`` via union by size and
    path halving.  :meth:`labels` canonicalizes every element in one
    vectorized pass, which is what the FOF finders call once at the end.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.intp)
        self.size = np.ones(n, dtype=np.intp)
        self.n_components = n

    def __len__(self) -> int:
        return len(self.parent)

    def find(self, x: int) -> int:
        """Root of ``x``'s component (with path halving)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        """Merge the components of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return ra

    def union_pairs(self, a: np.ndarray, b: np.ndarray) -> None:
        """Union many ``(a[i], b[i])`` pairs."""
        for x, y in zip(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)):
            self.union(int(x), int(y))

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same component."""
        return self.find(a) == self.find(b)

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Canonical roots for an array of elements (vectorized).

        Pointer-jumps the queried elements to their roots without
        touching the rest of the forest, then writes the roots back
        (full path compression for the queried set).
        """
        xs = np.asarray(xs, dtype=np.intp)
        if xs.size == 0:
            return xs.copy()
        parent = self.parent
        roots = parent[xs]
        while True:
            nxt = parent[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        parent[xs] = roots
        return roots

    def labels(self) -> np.ndarray:
        """Canonical root label for every element (vectorized full pass)."""
        parent = self.parent
        # Pointer-jump until fixed point: O(log n) passes, each vectorized.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        self.parent = parent
        return parent.copy()

    def component_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(roots, sizes)`` of all components."""
        labels = self.labels()
        return np.unique(labels, return_counts=True)


class GrowableDisjointSet(DisjointSet):
    """Union-find whose element universe grows (and compacts) over time.

    Shares the union-by-size + path-halving core with
    :class:`DisjointSet`; the parent/size arrays live in amortized-growth
    buffers so :meth:`add` is O(1) amortized, and :meth:`compact`
    renumbers a surviving subset of roots down to dense slots
    ``0..k-1`` so long streams never accumulate dead group storage.
    """

    def __init__(self, capacity: int = 16):
        cap = max(int(capacity), 1)
        self._parent = np.empty(cap, dtype=np.intp)
        self._size = np.empty(cap, dtype=np.intp)
        self._n = 0
        self.n_components = 0

    # the base-class core reads/writes ``parent``/``size``; expose the
    # live prefix of the growth buffers under those names
    @property
    def parent(self) -> np.ndarray:  # type: ignore[override]
        return self._parent[: self._n]

    @parent.setter
    def parent(self, value: np.ndarray) -> None:
        self._parent[: self._n] = value

    @property
    def size(self) -> np.ndarray:  # type: ignore[override]
        return self._size[: self._n]

    def __len__(self) -> int:
        return self._n

    def add(self, count: int = 1) -> int:
        """Append ``count`` singleton elements; returns the first new id."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self._n
        end = start + count
        if end > len(self._parent):
            cap = max(2 * len(self._parent), end)
            self._parent = np.concatenate(
                [self._parent[:start], np.empty(cap - start, dtype=np.intp)]
            )
            self._size = np.concatenate(
                [self._size[:start], np.empty(cap - start, dtype=np.intp)]
            )
        self._parent[start:end] = np.arange(start, end, dtype=np.intp)
        self._size[start:end] = 1
        self._n = end
        self.n_components += count
        return start

    def roots(self) -> np.ndarray:
        """Sorted array of all current component roots."""
        return np.flatnonzero(self.parent == np.arange(self._n))

    def compact(self, keep_roots: np.ndarray) -> np.ndarray:
        """Shrink the universe to ``keep_roots``, renumbered ``0..k-1``.

        Every kept root becomes a fresh singleton whose new id is its
        rank in the sorted unique root list; all other storage is
        dropped.  Returns that sorted root array so callers can remap
        old ids with ``np.searchsorted(old_roots, old_ids)``.
        """
        keep = np.unique(np.asarray(keep_roots, dtype=np.intp))
        if keep.size and (keep[0] < 0 or keep[-1] >= self._n):
            raise IndexError("keep_roots out of range")
        k = len(keep)
        self._parent[:k] = np.arange(k, dtype=np.intp)
        # sizes restart at 1: cross-compaction balance is irrelevant for
        # correctness and the forest stays shallow either way
        self._size[:k] = 1
        self._n = k
        self.n_components = k
        return keep
