"""Balsam ``boxpack``-style job packer: many small jobs, few big boxes.

The paper's off-line leg wants *thousands* of small center/subhalo jobs
flowing through the listener, but Titan's queue policy "only allows two
jobs that use less than 125 nodes to run simultaneously"
(:class:`repro.machines.machine.QueuePolicy`).  Balsam's answer — the
one this module reproduces — is to bin-pack the small jobs into a
handful of large batch allocations, each a **node-width × wall-time
rectangle**, so the facility sees a few big well-behaved jobs while the
service runs the real campaign inside them.

The algorithm is deterministic first-fit-decreasing **shelf packing**
(Balsam's ``boxpack``): jobs sorted by descending wall estimate (ties
broken by descending width, then id) are laid side by side on shelves
of total width ≤ the allocation's node count; a shelf's height is its
tallest job's wall estimate; shelves stack until the allocation's wall
limit is reached, then a new allocation opens.  Same inputs → same
packing, always (``check_determinism``-tested).

Wall estimates come from the calibrated cost model
(:mod:`repro.machines.cost`): :func:`estimate_center_job` converts a
job's halo population into projected seconds on the target machine,
exactly the way the Table 3/4 projections are priced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..machines.cost import PAPER_CALIBRATION, CostModel
from ..machines.machine import MachineSpec
from ..obs import get_recorder
from .store import JobRecord

__all__ = ["JobPacker", "PackedAllocation", "estimate_center_job"]


@dataclass
class PackedAllocation:
    """One batch allocation: a node-width × wall-time rectangle of jobs."""

    name: str
    n_nodes: int
    wall_seconds: float
    job_ids: list[str] = field(default_factory=list)
    #: packed job-seconds·nodes over the rectangle's area
    utilization: float = 0.0

    @property
    def n_jobs(self) -> int:
        return len(self.job_ids)


@dataclass(frozen=True)
class _Shelf:
    height: float
    used_nodes: int
    job_ids: tuple[str, ...]


class JobPacker:
    """Deterministic shelf packer for campaign jobs.

    Parameters
    ----------
    max_nodes:
        Width of one allocation (nodes requested from the facility).
        Must be ≥ 125 on Titan to clear the small-job policy — the
        whole point of packing.
    max_wall:
        Height of one allocation (the batch wall limit, seconds).
    """

    def __init__(self, max_nodes: int, max_wall: float) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if max_wall <= 0:
            raise ValueError("max_wall must be positive")
        self.max_nodes = int(max_nodes)
        self.max_wall = float(max_wall)

    def pack(self, jobs: Sequence[JobRecord]) -> list[PackedAllocation]:
        """Pack ``jobs`` into allocations; every job lands exactly once.

        Raises :class:`ValueError` for a job wider than ``max_nodes`` or
        taller than ``max_wall`` — such a job can never fit and silently
        dropping it would misreport the campaign as covered.
        """
        for job in jobs:
            if job.n_nodes > self.max_nodes:
                raise ValueError(
                    f"job {job.id!r} wants {job.n_nodes} nodes; allocations "
                    f"are {self.max_nodes} wide"
                )
            if job.wall_estimate > self.max_wall:
                raise ValueError(
                    f"job {job.id!r} estimates {job.wall_estimate:.1f}s; "
                    f"allocations are capped at {self.max_wall:.1f}s"
                )
        # first-fit decreasing: tallest first, widest breaks ties, id
        # breaks the rest — a total order, so the packing is a pure
        # function of the job set
        ordered = sorted(
            jobs, key=lambda j: (-j.wall_estimate, -j.n_nodes, j.id)
        )
        shelves = self._build_shelves(ordered)
        allocations = self._stack_shelves(shelves)
        self.utilization(allocations, jobs)
        get_recorder().event(
            "service.packed",
            jobs=len(jobs),
            allocations=len(allocations),
            max_nodes=self.max_nodes,
            max_wall=self.max_wall,
        )
        return allocations

    def _build_shelves(self, ordered: Sequence[JobRecord]) -> list[_Shelf]:
        shelves: list[tuple[float, int, list[str]]] = []  # (height, used, ids)
        for job in ordered:
            placed = False
            for i, (height, used, ids) in enumerate(shelves):
                if used + job.n_nodes <= self.max_nodes:
                    # heights only shrink along the FFD order, so the
                    # shelf's height (its first, tallest job) is unchanged
                    shelves[i] = (height, used + job.n_nodes, [*ids, job.id])
                    placed = True
                    break
            if not placed:
                shelves.append((job.wall_estimate, job.n_nodes, [job.id]))
        return [_Shelf(h, u, tuple(ids)) for h, u, ids in shelves]

    def _stack_shelves(self, shelves: Sequence[_Shelf]) -> list[PackedAllocation]:
        allocations: list[PackedAllocation] = []
        current: list[_Shelf] = []
        height = 0.0

        def close() -> None:
            nonlocal current, height
            if not current:
                return
            ids = [jid for shelf in current for jid in shelf.job_ids]
            alloc = PackedAllocation(
                name=f"pack-{len(allocations):03d}",
                n_nodes=self.max_nodes,
                wall_seconds=height,
                job_ids=ids,
            )
            allocations.append(alloc)
            current = []
            height = 0.0

        for shelf in shelves:
            if height + shelf.height > self.max_wall and current:
                close()
            current.append(shelf)
            height += shelf.height
        close()
        return allocations

    def utilization(
        self, allocations: Sequence[PackedAllocation], jobs: Sequence[JobRecord]
    ) -> list[PackedAllocation]:
        """Fill in each allocation's packed-area utilization, in place."""
        by_id = {j.id: j for j in jobs}
        for alloc in allocations:
            area = alloc.n_nodes * alloc.wall_seconds
            packed = sum(
                by_id[jid].n_nodes * by_id[jid].wall_estimate for jid in alloc.job_ids
            )
            alloc.utilization = packed / area if area > 0 else 0.0
        return list(allocations)


def estimate_center_job(
    halo_counts: Sequence[int] | np.ndarray,
    machine: MachineSpec,
    cost_model: CostModel = PAPER_CALIBRATION,
    backend: str = "gpu",
    overhead_seconds: float = 30.0,
) -> float:
    """Projected wall seconds for one off-line center job.

    ``halo_counts`` are the particle counts of the halos the job will
    center; the brute-force MBP cost is ``n·(n−1)`` pair interactions
    per halo, priced at the machine's calibrated pair rate (the Table 2
    column).  ``overhead_seconds`` covers stage-in + startup — the floor
    that makes packing thousands of tiny jobs worthwhile at all.
    """
    counts = np.asarray(halo_counts, dtype=float)
    pairs = float(np.sum(counts * (counts - 1.0)))
    seconds = float(cost_model.center_seconds(pairs, machine, backend=backend))
    return seconds + float(overhead_seconds)
