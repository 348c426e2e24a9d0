"""SPH local density estimation for the subhalo finder.

Paper §3.3.1: "The local density for each particle in the parent FOF
halo is estimated by finding a specified number of nearest neighbor
particles, and computing a density based on the total mass of these
particles and the distance to the furthest of these", evaluated with an
SPH (smoothed particle hydrodynamics) kernel over a tree.  The tree is
the compiled ``scipy.spatial.cKDTree``, queried once for every particle.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..check.sanitize import guard_kernel

__all__ = ["cubic_spline_kernel", "knn_neighbors", "sph_density"]


def cubic_spline_kernel(r: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """Standard M4 cubic spline kernel W(r, h), normalized in 3-D.

    Compact support at ``r = h`` (the "2h" convention folded into h).
    """
    r = np.asarray(r, dtype=float)
    q = 2.0 * r / h  # internal variable on [0, 2]
    sigma = 1.0 / np.pi / (h / 2.0) ** 3
    out = np.zeros_like(q)
    inner = q <= 1.0
    outer = (q > 1.0) & (q < 2.0)
    out[inner] = 1.0 - 1.5 * q[inner] ** 2 + 0.75 * q[inner] ** 3
    out[outer] = 0.25 * (2.0 - q[outer]) ** 3
    return sigma * out


def knn_neighbors(pos: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors of every particle (excluding itself).

    Returns ``(indices, distances)`` of shape ``(n, k)``, each row
    ordered by (distance, index) so ties do not depend on the tree.
    Self is dropped by index; when more than ``k`` other points coincide
    with a particle the query may not return it, and the row's last
    column is dropped instead.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if not 1 <= k < n:
        raise ValueError(f"k={k} must be in [1, n={n})")
    dist, idx = cKDTree(pos).query(pos, k + 1)
    order = np.lexsort((idx, dist), axis=-1)
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    drop = idx == np.arange(n)[:, None]
    drop[~drop.any(axis=1), -1] = True
    return idx[~drop].reshape(n, k), dist[~drop].reshape(n, k)


def _kernel_density(dist: np.ndarray, mass: float) -> np.ndarray:
    """SPH density from each row of sorted neighbor distances.

    The smoothing length is the row's last (farthest) distance; the
    density sums the cubic-spline kernel over the neighbors plus the
    self term, as is standard.
    """
    h = dist[:, -1:]
    w = cubic_spline_kernel(dist, h).sum(axis=1)
    return mass * (w + cubic_spline_kernel(0.0, h)[:, 0])


@guard_kernel
def sph_density(pos: np.ndarray, mass: float = 1.0, k: int = 32) -> np.ndarray:
    """SPH density at every particle from its k nearest neighbors."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n <= k:
        # degenerate tiny groups: uniform density estimate
        return np.full(n, float(mass) * n)
    return _kernel_density(knn_neighbors(pos, k)[1], mass)
