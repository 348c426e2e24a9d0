"""Test oracles for MBP center finding.

``halo_centers_reference`` is the plain per-halo loop that was
``repro.analysis.centers.halo_centers`` before every batch went through
the :mod:`repro.exec` engine: no work queue, no slabs, no chunks, no
reassembly — one label scan and one whole-halo kernel call per halo, in
ascending halo-tag order.  The engine is checked against it bit for bit
at every worker count.  It shares the per-halo kernels
(``mbp_center_bruteforce`` / ``mbp_center_astar``) with production and
none of the batching.

``potential_reference`` is the per-element Python double loop the blocked
vectorized potential kernel is cross-validated against; it is also the
CPU stand-in of the backend-ratio benchmark (the paper's ~50x GPU
speed-up analogue).  Never use it on more than a few hundred particles.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.centers import (
    DEFAULT_SOFTENING,
    CenterStats,
    HaloCentersResult,
    mbp_center_astar,
    mbp_center_bruteforce,
)

__all__ = ["halo_centers_reference", "potential_reference"]


def potential_reference(
    pos: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
) -> np.ndarray:
    """Tiny-n pure-Python all-pairs potential ``Φ_i = Σ_{j≠i} -m/(d_ij + ε)``."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    phi = np.zeros(n)
    for i in range(n):
        acc = 0.0
        pi = pos[i]
        for j in range(n):
            if i == j:
                continue
            d = np.sqrt(
                (pi[0] - pos[j, 0]) ** 2
                + (pi[1] - pos[j, 1]) ** 2
                + (pi[2] - pos[j, 2]) ** 2
            )
            acc -= mass / (d + softening)
        phi[i] = acc
    return phi


def halo_centers_reference(
    pos: np.ndarray,
    tags: np.ndarray,
    labels: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
    method: str = "bruteforce",
    backend: str | None = None,
    select_tags: np.ndarray | None = None,
) -> HaloCentersResult:
    """MBP center of every halo, one whole-halo kernel call at a time."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    tags = np.asarray(tags)
    labels = np.asarray(labels)
    halo_tags = np.unique(labels[labels >= 0])
    if select_tags is not None:
        halo_tags = halo_tags[np.isin(halo_tags, select_tags)]

    centers = np.empty((len(halo_tags), 3))
    mbp_tags = np.empty(len(halo_tags), dtype=tags.dtype)
    potentials = np.empty(len(halo_tags))
    per_halo_pairs = np.empty(len(halo_tags), dtype=np.int64)
    total = CenterStats()
    for h, halo_tag in enumerate(halo_tags):
        members = np.flatnonzero(labels == halo_tag)
        hpos = pos[members]
        if method == "astar":
            idx, phi, stats = mbp_center_astar(hpos, mass=mass, softening=softening)
        else:
            idx, phi, stats = mbp_center_bruteforce(
                hpos, mass=mass, softening=softening, backend=backend
            )
        centers[h] = hpos[idx]
        mbp_tags[h] = tags[members[idx]]
        potentials[h] = phi
        per_halo_pairs[h] = stats.pair_evaluations
        total.merge(stats)
    return HaloCentersResult(
        halo_tags=halo_tags,
        centers=centers,
        mbp_tags=mbp_tags,
        potentials=potentials,
        stats=total,
        per_halo_pairs=per_halo_pairs,
    )
