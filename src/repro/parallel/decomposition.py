"""3-D Cartesian domain decomposition of a periodic simulation box.

HACC distributes particles across ranks by a regular 3-D block
decomposition of the periodic box.  This module reproduces that layout:
ranks are factorized into a near-cubic ``(px, py, pz)`` process grid
(``MPI_Dims_create`` style), each rank owns an axis-aligned sub-box, and
positions map to owner ranks by integer division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["factor_dims", "CartesianDecomposition"]


def factor_dims(nranks: int, ndim: int = 3) -> tuple[int, ...]:
    """Factor ``nranks`` into ``ndim`` near-equal factors (descending).

    Equivalent in spirit to ``MPI_Dims_create``: among all factorizations
    it picks the one minimizing the spread between the largest and
    smallest factor (then lexicographically smallest), so 8 -> (2, 2, 2),
    12 -> (3, 2, 2), 32 -> (4, 4, 2).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    if ndim == 1:
        return (nranks,)

    best: tuple[int, ...] | None = None
    best_score: tuple[int, tuple[int, ...]] | None = None

    def rec(remaining: int, slots: int, prefix: tuple[int, ...]) -> None:
        nonlocal best, best_score
        if slots == 1:
            dims = tuple(sorted((*prefix, remaining), reverse=True))
            score = (dims[0] - dims[-1], dims)
            if best_score is None or score < best_score:
                best, best_score = dims, score
            return
        f = 1
        while f * f <= remaining or f <= remaining:
            if f > remaining:
                break
            if remaining % f == 0:
                rec(remaining // f, slots - 1, (*prefix, f))
            f += 1

    rec(nranks, ndim, ())
    assert best is not None
    return best


@dataclass(frozen=True)
class CartesianDecomposition:
    """Regular 3-D block decomposition of a periodic cubic box.

    Parameters
    ----------
    box:
        Side length of the periodic box (same units as positions).
    dims:
        Process grid shape ``(px, py, pz)``.
    """

    box: float
    dims: tuple[int, int, int]

    @classmethod
    def for_ranks(cls, box: float, nranks: int) -> "CartesianDecomposition":
        """Build a decomposition with an automatically factored grid."""
        return cls(box=box, dims=tuple(factor_dims(nranks, 3)))  # type: ignore[arg-type]

    @property
    def nranks(self) -> int:
        px, py, pz = self.dims
        return px * py * pz

    @property
    def cell_sizes(self) -> np.ndarray:
        """Sub-box edge lengths along each axis."""
        return self.box / np.asarray(self.dims, dtype=float)

    # -- rank <-> grid coordinates ---------------------------------------

    def coords_of_rank(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates ``(ix, iy, iz)`` of ``rank`` (row-major)."""
        px, py, pz = self.dims
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        ix, rem = divmod(rank, py * pz)
        iy, iz = divmod(rem, pz)
        return ix, iy, iz

    def rank_of_coords(self, ix: int, iy: int, iz: int) -> int:
        """Rank owning grid cell ``(ix, iy, iz)`` (periodic wrap applied)."""
        px, py, pz = self.dims
        return ((ix % px) * py + (iy % py)) * pz + (iz % pz)

    # -- geometry ---------------------------------------------------------

    def bounds(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` corner coordinates of the sub-box owned by ``rank``."""
        coords = np.asarray(self.coords_of_rank(rank), dtype=float)
        cell = self.cell_sizes
        lo = coords * cell
        return lo, lo + cell

    def rank_of_position(self, pos: np.ndarray) -> np.ndarray:
        """Owner ranks of positions ``pos`` (shape ``(n, 3)`` or ``(3,)``).

        Positions are periodically wrapped into the box first; rows
        already inside ``[0, box)`` wrap to themselves, so the wrap only
        runs when some row lies outside.
        """
        pos = np.atleast_2d(np.asarray(pos, dtype=float))
        if pos.size and not (pos.min() >= 0.0 and pos.max() < self.box):
            pos = np.mod(pos, self.box)
        cell = self.cell_sizes
        idx = np.floor(pos / cell).astype(np.intp)
        dims = np.asarray(self.dims, dtype=np.intp)
        # Guard against positions exactly at the box edge after wrap.
        np.clip(idx, 0, dims - 1, out=idx)
        ranks = (idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2]
        return ranks if ranks.size > 1 else ranks.reshape(-1)

    def neighbor_ranks(self, rank: int) -> list[int]:
        """The (up to) 26 distinct periodic neighbors of ``rank``."""
        ix, iy, iz = self.coords_of_rank(rank)
        out: list[int] = []
        seen = {rank}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    r = self.rank_of_coords(ix + dx, iy + dy, iz + dz)
                    if r not in seen:
                        seen.add(r)
                        out.append(r)
        return out

    def contains(self, rank: int, pos: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``pos`` fall inside rank's owned sub-box."""
        lo, hi = self.bounds(rank)
        pos = np.atleast_2d(np.mod(np.asarray(pos, dtype=float), self.box))
        return np.all((pos >= lo) & (pos < hi), axis=1)
