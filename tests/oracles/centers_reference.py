"""Test oracles for MBP center finding.

``halo_centers_reference`` is the plain per-halo loop that was
``repro.analysis.centers.halo_centers`` before every batch went through
the :mod:`repro.exec` engine: no work queue, no slabs, no chunks, no
reassembly — one label scan and one whole-halo kernel call per halo, in
ascending halo-tag order.  The engine is checked against it bit for bit
at every worker count.  It shares the per-halo kernel
(``mbp_center_bruteforce``) with production and none of the batching.

``potential_reference`` is the per-element Python double loop the
compiled pair kernel is cross-validated against (``allclose``); the
center-finder micro-benchmark times it against that kernel.  Never use
it on more than a few hundred particles.

``potential_broadcast`` and ``unbind_reference`` are the NumPy
broadcast ``(rows, n, 3)`` pair blocks the production code used before
it had one pair kernel: the whole-halo potential and the subhalo
unbinding loop.  ``scipy.spatial.distance.cdist`` sums the same three
squares in the same order, so on this platform's build (x86-64 wheels,
no FMA contraction) the kernel must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.centers import (
    DEFAULT_SOFTENING,
    CenterStats,
    HaloCentersResult,
    mbp_center_bruteforce,
)

__all__ = [
    "halo_centers_reference",
    "potential_broadcast",
    "potential_reference",
    "unbind_reference",
]


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


def potential_broadcast(
    pos: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
    block: int = 2048,
) -> np.ndarray:
    """All-pairs potential from ``block``-row ``(rows, n, 3)`` difference temporaries."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    phi = np.zeros(n)
    for s in range(0, n, block):
        e = min(s + block, n)
        d = np.sqrt(np.maximum(np.sum((pos[s:e, None, :] - pos[None, :, :]) ** 2, axis=-1), 0.0))
        with np.errstate(divide="ignore"):
            contrib = -mass / (d + softening)
        rows = np.arange(s, e)
        contrib[rows - s, rows] = 0.0
        phi[s:e] = contrib.sum(axis=1)
    return phi


def unbind_reference(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: float,
    g_constant: float,
    softening: float = 1e-5,
    max_remove_fraction: float = 0.25,
    min_size: int = 20,
    max_passes: int = 50,
) -> np.ndarray:
    """``repro.analysis.subhalos.unbind_particles`` with its own 4096-row pair loop."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    vel = np.atleast_2d(np.asarray(vel, dtype=float))
    alive = np.ones(len(pos), dtype=bool)
    for _ in range(max_passes):
        members = np.flatnonzero(alive)
        if len(members) < min_size:
            alive[:] = False
            break
        p = pos[members]
        v = vel[members]
        ke = 0.5 * np.sum((v - np.median(v, axis=0)) ** 2, axis=1)
        m = len(members)
        phi = np.zeros(m)
        block = 4096
        for s in range(0, m, block):
            e = min(s + block, m)
            d = np.sqrt(np.sum((p[s:e, None, :] - p[None, :, :]) ** 2, axis=-1))
            with np.errstate(divide="ignore"):
                contrib = -g_constant * mass / (d + softening)
            rows = np.arange(s, e)
            contrib[rows - s, rows] = 0.0
            phi[s:e] = contrib.sum(axis=1)
        energy = ke + phi
        positive = energy > 0
        n_pos = int(positive.sum())
        if n_pos == 0:
            break
        n_remove = max(int(np.ceil(max_remove_fraction * n_pos)), 1)
        alive[members[np.argsort(energy)[-n_remove:]]] = False
    return alive


def halo_centers_reference(
    pos: np.ndarray,
    tags: np.ndarray,
    labels: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
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
        idx, phi, stats = mbp_center_bruteforce(hpos, mass=mass, softening=softening)
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
