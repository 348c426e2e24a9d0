"""Subhalo identification within FOF halos.

Implements the density-hierarchy subhalo finder the paper adopts
(§3.3.1, following Maciejewski et al. 2009 / Springel et al. 2001):

1. Estimate a local SPH density for every particle in the parent FOF
   halo (k nearest neighbors — :mod:`repro.analysis.sph`).
2. Build subhalo candidates by iterating over the particle list in
   density-descending order: each particle links to its nearest
   already-inserted neighbors.  A particle with no inserted neighbors
   starts a new candidate (a local density peak); with neighbors in a
   single candidate it joins that candidate; with neighbors in two
   candidates it is a saddle point — both candidates are frozen at their
   current membership and merged into a growing parent structure.
3. Unbind: for each candidate, particles with positive total energy are
   iteratively removed, "removing no more than one-quarter of the
   particles with positive energy at each step" (the paper's multi-pass
   rule), until the remainder is self-bound or the candidate drops below
   the minimum size.

The finder exhibits exactly the load-imbalance pathology the paper
discusses: cost grows super-linearly with parent halo size, and "our
current implementation based on a tree-algorithm does not take advantage
of GPUs" — mirrored here by the serial candidate-growth loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..check.sanitize import guard_kernel
from .centers import _phi_blocked
from .sph import _kernel_density, knn_neighbors

__all__ = ["SubhaloResult", "find_subhalos", "unbind_particles", "DEFAULT_MIN_SUBHALO"]

#: Minimum particles for a subhalo to be retained (paper: subhalos were
#: found for halos with more than 5000 particles; candidates below ~20
#: particles are unreliable).
DEFAULT_MIN_SUBHALO = 20


@dataclass
class SubhaloResult:
    """Subhalo decomposition of one FOF halo.

    ``labels[i]`` is the subhalo id of halo-local particle ``i`` (or -1
    for unassigned/unbound "fuzz").  Subhalo 0 is the most massive
    (the main body / central subhalo).
    """

    labels: np.ndarray
    n_candidates: int
    subhalo_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    unbound_removed: int = 0

    @property
    def n_subhalos(self) -> int:
        return len(self.subhalo_sizes)


@guard_kernel
def unbind_particles(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: float,
    g_constant: float,
    softening: float = 1e-5,
    max_remove_fraction: float = 0.25,
    min_size: int = DEFAULT_MIN_SUBHALO,
    max_passes: int = 50,
) -> np.ndarray:
    """Iteratively remove gravitationally unbound particles.

    Total specific energy of particle *i* is ``0.5 |v_i - v_bulk|² +
    φ_i`` with ``φ_i = -G Σ m/(d+ε)`` over the remaining members.  At
    most ``max_remove_fraction`` of the positive-energy particles are
    removed per pass (the paper's "no more than one-quarter" rule — the
    potential changes as members leave, so aggressive removal
    over-strips), iterating until all remaining particles are bound or
    fewer than ``min_size`` remain.

    Returns a boolean mask over the input of the finally-bound members
    (all ``False`` if the group dissolved).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    vel = np.atleast_2d(np.asarray(vel, dtype=float))
    n = len(pos)
    alive = np.ones(n, dtype=bool)

    for _ in range(max_passes):
        members = np.flatnonzero(alive)
        if len(members) < min_size:
            alive[:] = False
            break
        p = pos[members]
        v = vel[members]
        # median bulk velocity: robust against fast interlopers that
        # would otherwise drag the mean and mark bound members unbound
        v_bulk = np.median(v, axis=0)
        ke = 0.5 * np.sum((v - v_bulk) ** 2, axis=1)
        phi = _phi_blocked(p, 0, len(members), g_constant * mass, softening)
        energy = ke + phi
        positive = energy > 0
        n_pos = int(positive.sum())
        if n_pos == 0:
            break
        # remove the most-unbound quarter (at least one)
        n_remove = max(int(np.ceil(max_remove_fraction * n_pos)), 1)
        worst = members[np.argsort(energy)[-n_remove:]]
        alive[worst] = False
    return alive


@guard_kernel
def find_subhalos(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: float = 1.0,
    g_constant: float = 1.0,
    k_density: int = 32,
    n_link: int = 2,
    min_size: int = DEFAULT_MIN_SUBHALO,
    unbind: bool = True,
    softening: float = 1e-5,
) -> SubhaloResult:
    """Decompose one FOF halo into subhalos.

    Parameters
    ----------
    pos, vel:
        Halo-local particle positions and velocities (consistent units;
        ``g_constant`` converts the potential into the kinetic-energy
        units for unbinding).
    k_density:
        Neighbor count for the SPH density estimate.
    n_link:
        How many nearest already-inserted neighbors each particle links
        to during candidate growth (2 is standard).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    vel = np.atleast_2d(np.asarray(vel, dtype=float))
    n = len(pos)
    if n < max(min_size, k_density + 1):
        return SubhaloResult(labels=np.full(n, -1, dtype=np.int64), n_candidates=0)

    # one neighbor query: the density reads its first k_density columns,
    # candidate growth all of them
    k_grow = min(max(k_density, 8), n - 1)
    nbr_idx, nbr_dist = knn_neighbors(pos, k_grow)
    rho = _kernel_density(nbr_dist[:, :k_density], mass)

    order = np.argsort(-rho, kind="stable")
    group_of = np.full(n, -1, dtype=np.int64)
    inserted = np.zeros(n, dtype=bool)
    parent: dict[int, int] = {}  # union-find over candidate groups
    members: dict[int, list[int]] = {}  # live member lists, per root
    candidates: list[np.ndarray] = []  # frozen candidate snapshots
    next_group = 0

    def find_root(g: int) -> int:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for i in order:
        neighbor_groups: list[int] = []
        seen_roots: set[int] = set()
        for j in nbr_idx[i]:
            if inserted[j]:
                root = find_root(int(group_of[j]))
                if root not in seen_roots:
                    seen_roots.add(root)
                    neighbor_groups.append(root)
                if len(neighbor_groups) >= n_link:
                    break
        if not neighbor_groups:
            # local density maximum: a new candidate is born
            parent[next_group] = next_group
            members[next_group] = [int(i)]
            group_of[i] = next_group
            next_group += 1
        elif len(neighbor_groups) == 1:
            g = neighbor_groups[0]
            members[g].append(int(i))
            group_of[i] = g
        else:
            # saddle point: the smaller group is frozen as a finished
            # subhalo candidate; the larger keeps growing and absorbs it
            ga, gb = neighbor_groups[0], neighbor_groups[1]
            if len(members[ga]) < len(members[gb]):
                ga, gb = gb, ga
            candidates.append(np.asarray(members[gb], dtype=np.intp))
            parent[gb] = ga
            members[ga].extend(members[gb])
            del members[gb]
            members[ga].append(int(i))
            group_of[i] = ga
        inserted[i] = True

    # surviving roots (typically one: the whole halo) are candidates with
    # their final membership — the "main body" candidate
    for mlist in members.values():
        candidates.append(np.asarray(mlist, dtype=np.intp))

    candidates = [c for c in candidates if len(c) >= min_size]
    # deepest-first assignment: smaller candidates claim their particles
    # before the enclosing structures (the SUBFIND convention); the
    # top-level candidate keeps the remainder as the main subhalo
    candidates.sort(key=len)

    labels = np.full(n, -1, dtype=np.int64)
    sizes = []
    removed = 0
    sub_id = 0
    for cand in candidates:
        fresh = cand[labels[cand] < 0]
        if len(fresh) < min_size:
            continue
        if unbind:
            bound = unbind_particles(
                pos[fresh],
                vel[fresh],
                mass=mass,
                g_constant=g_constant,
                softening=softening,
                min_size=min_size,
            )
            removed += int((~bound).sum())
            kept = fresh[bound]
        else:
            kept = fresh
        if len(kept) < min_size:
            continue
        labels[kept] = sub_id
        sizes.append(len(kept))
        sub_id += 1

    # renumber by size descending: subhalo 0 is the most massive
    order_ids = np.argsort(-np.asarray(sizes, dtype=np.int64), kind="stable")
    remap = {int(old): new for new, old in enumerate(order_ids)}
    relabeled = np.asarray([remap[x] if x >= 0 else -1 for x in labels], dtype=np.int64)
    sizes_sorted = np.asarray(sizes, dtype=np.int64)[order_ids]

    return SubhaloResult(
        labels=relabeled,
        n_candidates=len(candidates),
        subhalo_sizes=sizes_sorted,
        unbound_removed=removed,
    )
