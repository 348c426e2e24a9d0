"""Test oracles for the k-nearest-neighbor density estimates.

``knn_bruteforce`` is :func:`repro.analysis.sph.knn_neighbors` from the
full distance matrix: each row sorted by (distance, index), self
removed.  Its distances are the same float operations the compiled tree
performs, so they must match exactly; its indices match wherever the
k-th distance is strictly below the (k+1)-th (the neighbor set is then
unique).  Use it on a few hundred points at most.

``tophat_density`` is the simpler mass / sphere-volume estimate the
paper's prose describes; it ranks particles consistently with the SPH
estimate.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sph import knn_neighbors

__all__ = ["knn_bruteforce", "tophat_density"]


def knn_bruteforce(pos: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, distances)`` of shape ``(n, k + 1)``, self excluded.

    One column more than asked for, so a caller can tell whether the
    k-th neighbor is tied with the next one.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    dist = np.sqrt(np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1))
    idx = np.broadcast_to(np.arange(n), (n, n))
    order = np.lexsort((idx, dist), axis=-1)
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    keep = idx != np.arange(n)[:, None]
    idx = idx[keep].reshape(n, n - 1)[:, : k + 1]
    dist = dist[keep].reshape(n, n - 1)[:, : k + 1]
    return idx, dist


def tophat_density(pos: np.ndarray, mass: float = 1.0, k: int = 32) -> np.ndarray:
    """Top-hat density: k-neighbor mass over the enclosing sphere volume."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n <= k:
        return np.full(n, float(mass) * n)
    _, dist = knn_neighbors(pos, k)
    r = dist[:, -1]
    volume = 4.0 / 3.0 * np.pi * np.maximum(r, 1e-12) ** 3
    return (k + 1) * mass / volume
