"""Overload (ghost) region construction for the parallel halo finder.

The paper (§3.3.1): "Overload regions are defined at the boundaries of
the processors, with each of the neighboring processors receiving a copy
of the particles in this region.  The size of the overload regions are
defined to be large enough relative to the maximum feasible halo extent
such that each halo is assured of being found in its entirety by at
least one processor."

Given a rank's owned particle positions, :func:`overload_destinations`
determines, for each neighbor rank, which particles must be replicated
there, including the periodic image shift to apply so the copy lands in
the neighbor's coordinate neighborhood.
"""

from __future__ import annotations

import itertools

import numpy as np

from .decomposition import CartesianDecomposition

__all__ = ["overload_destinations", "select_overload", "OVERLOAD_SAFETY_FACTOR"]

#: Overload width is usually set to a small multiple of the expected
#: maximum halo diameter; HACC uses a fixed physical width chosen offline.
OVERLOAD_SAFETY_FACTOR = 1.2


def overload_destinations(
    decomp: CartesianDecomposition,
    rank: int,
    positions: np.ndarray,
    width: float,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Plan ghost replication of this rank's particles to its neighbors.

    Parameters
    ----------
    decomp:
        The domain decomposition.
    rank:
        The owning rank whose particles are being replicated outward.
    positions:
        ``(n, 3)`` positions of the rank's *owned* particles (already
        inside the rank's sub-box, in box coordinates).
    width:
        Overload width: particles within ``width`` of a face are
        replicated across that face.

    Returns
    -------
    dict mapping neighbor rank -> ``(indices, shift)`` where ``indices``
    selects the particles to copy and ``shift`` is the ``(k, 3)`` periodic
    offset (multiples of the box length, usually zeros) to add to their
    positions so the neighbor sees them in its own unwrapped frame.
    Neighbors lie only along the axes the process grid splits, so a rank
    never appears in its own plan.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if width < 0:
        raise ValueError("overload width must be non-negative")
    cell = decomp.cell_sizes
    if np.any(width >= cell / 2) and decomp.nranks > 1:
        # A width of half the cell or more would replicate particles to
        # non-adjacent ranks, which this 26-neighbor scheme cannot express.
        raise ValueError(
            f"overload width {width} too large for cell sizes {cell} "
            "(must be < half the sub-box edge)"
        )

    coords = np.asarray(decomp.coords_of_rank(rank))
    lo, hi = decomp.bounds(rank)
    dims = np.asarray(decomp.dims)
    box = decomp.box

    # Neighbours lie along the axes the process grid splits.  A 1-wide
    # axis has none: the rank's own periodic link closes it
    # (``parallel_fof``), so no direction steps along one.  Only the rows
    # near a face of a split axis can go anywhere; the direction masks
    # cover those.
    split = dims > 1
    near_lo = positions < (lo + width)  # (n, 3) booleans
    near_hi = positions >= (hi - width)
    near = np.flatnonzero((near_lo | near_hi)[:, split].any(axis=1))
    near_lo, near_hi = near_lo[near], near_hi[near]

    # A neighbor reachable via several directions (a 2-wide axis with
    # wraparound) gets one (indices, shifts) part per direction.  Parts
    # never repeat a row: indices are unique within a direction, and two
    # directions onto the same neighbor differ in their shift vector
    # (+box / 0 or 0 / -box along the 2-wide axis).
    parts: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    steps = [(-1, 0, 1) if s else (0,) for s in split]
    for d in itertools.product(*steps):
        if not any(d):
            continue
        mask = np.ones(len(near), dtype=bool)
        for axis, step in enumerate(d):
            if step == -1:
                mask &= near_lo[:, axis]
            elif step == 1:
                mask &= near_hi[:, axis]
        if not mask.any():
            continue
        target = coords + d
        nbr = decomp.rank_of_coords(*target)
        idx = near[mask]
        # Periodic shift: if stepping off the grid edge, shift the copy so
        # it lands adjacent to the receiving rank's frame.  Stepping below
        # cell 0 wraps to the highest rank, whose high face sits at x=box:
        # the copy must appear at x+box.
        shift = np.where(target < 0, box, np.where(target >= dims, -box, 0.0))
        idx_parts, shift_parts = parts.setdefault(nbr, ([], []))
        idx_parts.append(idx)
        shift_parts.append(np.broadcast_to(shift, (idx.size, 3)))
    return {
        nbr: (np.concatenate(idx_parts), np.concatenate(shift_parts))
        for nbr, (idx_parts, shift_parts) in parts.items()
    }


def select_overload(
    positions: np.ndarray,
    plan: dict[int, tuple[np.ndarray, np.ndarray]],
    neighbor: int,
) -> np.ndarray:
    """Materialize the shifted ghost positions destined for ``neighbor``."""
    idx, shift = plan[neighbor]
    return np.asarray(positions, dtype=float)[idx] + shift
