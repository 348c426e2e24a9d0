"""Most-bound-particle (MBP) halo center finding.

The paper's compute-intensive villain (§3.3.2): the center of a halo is
the particle with minimal gravitational potential, where the potential of
particle *i* is ``Φ_i = Σ_{j≠i} -m / (d_ij + ε)`` (the small constant
offset avoids numerical issues for extremely close particles).  This is
O(n²) per halo, so "finding the MBP center of a halo with 10 million
particles can take 10,000 times longer than for a halo with 100,000
particles" — the load imbalance that motivates the combined workflow.

Implementations:

``mbp_center_bruteforce``
    Computes all n² pair terms with one compiled pair kernel
    (``scipy.spatial.distance.cdist``), which stands in for the paper's
    PISTON/GPU kernel.  PISTON's CPU/GPU portability is not reproduced;
    the cost model's GPU-over-CPU factor is the paper's constant.  The
    serial A* search of Ref. [10] is not kept: it did as much pair work
    and ran 4-5x slower (EXPERIMENTS.md).

``approximate_center_*``
    Cheaper, less accurate definitions (center of mass, densest CIC
    cell).  The paper notes these were tried and rejected on accuracy —
    kept here for the accuracy-vs-cost ablation.

``halo_centers``
    Batch driver over a FOF catalog, with per-halo pair-interaction
    counters used for the cost model and Figure 4.  There is one path:
    every batch is scheduled by the :mod:`repro.exec` engine, whose item
    runners are the only callers of ``mbp_center_bruteforce``, and
    ``workers`` is only its width (one worker runs inline on the calling
    thread).  The independent per-halo loop the engine is checked
    against is a test oracle (``tests/oracles/centers_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from ..check.sanitize import guard_kernel

__all__ = [
    "DEFAULT_SOFTENING",
    "CenterStats",
    "potential_bruteforce",
    "mbp_center_bruteforce",
    "approximate_center_of_mass",
    "approximate_center_densest_cell",
    "group_halo_members",
    "halo_centers",
    "center_finding_cost",
]

#: Constant offset added to pair distances (paper §3.3.2).
DEFAULT_SOFTENING = 1.0e-5

#: Row cap of one pair-sum temporary (rows x n doubles).  Timed on one
#: 6 000-particle halo on a 2-core x86-64 host: 0.20 s at 256 rows,
#: 0.25-0.33 s at 512, 1024 and 2048.
_BLOCK_ROWS = 256


@dataclass
class CenterStats:
    """Work counters for one center-finding call."""

    n_particles: int = 0
    pair_evaluations: int = 0

    def merge(self, other: "CenterStats") -> None:
        self.n_particles += other.n_particles
        self.pair_evaluations += other.pair_evaluations


def _phi_rows(
    targets: np.ndarray,
    sources: np.ndarray,
    mass: float,
    softening: float,
    self_pairs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Potential ``Σ_j -mass/(d_ij + ε)`` at every target row from every source.

    The one pair-distance computation in the package: ``cdist`` sums the
    three squared differences left to right and takes the square root,
    so it matches the broadcast ``(rows, n, 3)`` form bit for bit with a
    ``(rows, n)`` temporary.  ``self_pairs`` indexes the ``(row, column)``
    entries where a target *is* a source; those terms are zeroed (which
    also discards the d=0 divide when softening=0).  Each row is one
    vectorized sum in a fixed order, so results do not depend on how the
    rows were grouped.  The temporary is ``rows x sources``: whole-halo
    callers go through :func:`_phi_blocked`, which caps the row count.
    """
    phi = cdist(targets, sources)
    phi += softening
    with np.errstate(divide="ignore"):
        np.divide(-mass, phi, out=phi)
    phi[self_pairs] = 0.0
    return phi.sum(axis=1)


def _phi_blocked(
    pos: np.ndarray,
    start: int,
    end: int,
    mass: float,
    softening: float,
    block: int = _BLOCK_ROWS,
) -> np.ndarray:
    """Potentials of rows ``start:end`` against all of ``pos``, ``block`` rows at a time.

    The one memory-bounded entry point, under :func:`potential_bruteforce`
    (all rows), the :mod:`repro.exec` slab items that split a giant halo
    (a row range) and subhalo unbinding: rows are independent sums, so
    blocking changes the peak temporary and nothing else.
    """
    phi = np.empty(end - start)
    for s in range(start, end, block):
        e = min(s + block, end)
        rows = np.arange(e - s)
        phi[s - start : e - start] = _phi_rows(pos[s:e], pos, mass, softening, (rows, rows + s))
    return phi


@guard_kernel
def potential_bruteforce(
    pos: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
    block: int = _BLOCK_ROWS,
) -> np.ndarray:
    """All-pairs potential ``Φ_i = Σ_{j≠i} -m/(d_ij + ε)`` for every particle.

    The pair sums are evaluated in row blocks (memory-bounded) by the
    one pair kernel (the per-element Python double loop it is
    cross-validated against is a test oracle,
    ``tests/oracles/centers_reference.py``).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n < 2:
        return np.zeros(n)
    return _phi_blocked(pos, 0, n, mass, softening, block)


@guard_kernel
def mbp_center_bruteforce(
    pos: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
) -> tuple[int, float, CenterStats]:
    """MBP by computing all potentials and taking the minimum.

    Returns ``(particle_index, potential, stats)``.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    stats = CenterStats(n_particles=n, pair_evaluations=n * (n - 1))
    if n == 0:
        raise ValueError("empty halo")
    if n == 1:
        return 0, 0.0, stats
    phi = potential_bruteforce(pos, mass=mass, softening=softening)
    idx = int(np.argmin(phi))
    return idx, float(phi[idx]), stats


def approximate_center_of_mass(pos: np.ndarray) -> np.ndarray:
    """Center of mass (fast, inaccurate for asymmetric halos)."""
    return np.atleast_2d(np.asarray(pos, dtype=float)).mean(axis=0)


def approximate_center_densest_cell(pos: np.ndarray, grid_n: int = 16) -> np.ndarray:
    """Mean position of particles in the densest coarse-grid cell."""
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    lo = pos.min(axis=0)
    span = np.maximum(pos.max(axis=0) - lo, 1e-12)
    coords = np.minimum(((pos - lo) / (span / grid_n)).astype(np.intp), grid_n - 1)
    ids = (coords[:, 0] * grid_n + coords[:, 1]) * grid_n + coords[:, 2]
    uniq, counts = np.unique(ids, return_counts=True)
    densest = uniq[np.argmax(counts)]
    return pos[ids == densest].mean(axis=0)


@dataclass
class HaloCentersResult:
    """Batch center-finding output over a halo catalog."""

    halo_tags: np.ndarray
    centers: np.ndarray  # (n_halos, 3)
    mbp_tags: np.ndarray
    potentials: np.ndarray
    stats: CenterStats = field(default_factory=CenterStats)
    per_halo_pairs: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: the :class:`repro.exec.engine.ExecReport` of the engine run that
    #: produced this batch (always set by :func:`halo_centers`)
    exec_report: object | None = None


def group_halo_members(
    labels: np.ndarray, select_tags: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group particle indices by halo label with **one** argsort.

    Replaces the former hidden O(halos x particles) pattern of scanning
    the full label array once per halo (``np.flatnonzero(labels == t)``
    in a loop) with a single O(P log P) stable sort plus boundary
    slicing.  Member indices within each halo are ascending — exactly
    the order the per-halo scan produced — so downstream results are
    bit-identical.

    Returns ``(halo_tags, members)`` with ``halo_tags`` ascending and
    ``members[i]`` the particle indices of ``halo_tags[i]``.  Label -1
    (fluff) is dropped; ``select_tags`` restricts the output.
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    sl = labels[order]
    first = int(np.searchsorted(sl, 0, side="left"))  # skip the -1 fluff
    order = order[first:]
    sl = sl[first:]
    if len(sl) == 0:
        return np.empty(0, dtype=labels.dtype), []
    starts = np.flatnonzero(np.concatenate([[True], sl[1:] != sl[:-1]]))
    bounds = np.append(starts, len(sl))
    halo_tags = sl[starts]
    members = [order[s:e] for s, e in zip(bounds[:-1], bounds[1:])]
    if select_tags is not None:
        keep = np.isin(halo_tags, select_tags)
        halo_tags = halo_tags[keep]
        members = [m for m, k in zip(members, keep) if k]
    return halo_tags, members


def halo_centers(
    pos: np.ndarray,
    tags: np.ndarray,
    labels: np.ndarray,
    mass: float = 1.0,
    softening: float = DEFAULT_SOFTENING,
    select_tags: np.ndarray | None = None,
    workers: int | None = None,
    backend: str | None = None,
) -> HaloCentersResult:
    """Find the MBP center of every halo in a labeled particle set.

    Parameters
    ----------
    pos, tags, labels:
        Particle positions, unique tags, and FOF halo labels (label -1 =
        not in a halo).  Typically from :class:`~repro.analysis.fof.FOFResult`.
    select_tags:
        Restrict to these halo tags (the workflow's in-situ/off-line
        split passes the below- or above-threshold subset).
    workers:
        Width of the :mod:`repro.exec` engine run that executes the
        batch (LPT scheduling by the ``n(n-1)`` cost model, giant halos
        split into row slabs).  ``None`` (default) and ``1`` run the
        work items inline on the calling thread — no fork, no
        shared-memory segment; ``>= 2`` fans them out over the worker
        pool.  The width selects no code: results are bit-identical for
        every value.  This is
        :func:`repro.exec.parallel_halo_centers` with ``workers``
        defaulting to one.
    backend:
        Selects nothing.  Kept only for the benchmark harness's center
        replay (``bench/workloads.py``), which passes ``"vector"``:
        ``None``, ``"serial"`` and ``"vector"`` are accepted, anything
        else raises ``ValueError``.  It leaves together with that call.
    """
    from ..exec import parallel_halo_centers

    if backend not in (None, "serial", "vector"):
        raise ValueError(f"unknown backend {backend!r}")

    return parallel_halo_centers(
        pos,
        tags,
        labels,
        mass=mass,
        softening=softening,
        select_tags=select_tags,
        workers=1 if workers is None else workers,
    )


def center_finding_cost(counts: np.ndarray) -> np.ndarray:
    """Pair-interaction cost model for MBP center finding: ``n(n-1)``.

    The quantity behind the paper's "10 million particles takes 10,000
    times longer than 100,000" (cost ratio = (10M/100k)² = 10⁴) and the
    projected per-node timings of Figure 4.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return counts * (counts - 1)
