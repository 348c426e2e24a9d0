"""Test oracles for the exec work queue's schedule.

``covered_halos`` inverts a :class:`~repro.exec.HaloWorkQueue` into the
rows each halo's items cover, so a test can check that whole halos run
exactly once and slabs partition their halo's rows.

``modeled_imbalance`` projects the queue onto ``workers`` identical
workers by greedy list scheduling — each item, in the queue's LPT
order, goes to the least-loaded worker — and returns the projected
max/mean load.  That is what the engine's one claim cursor does when
the modeled costs are the real ones, so it is the Figure 4 projection
a decomposition is judged by before anything runs.
"""

from __future__ import annotations

import numpy as np

from repro.exec import HaloWorkQueue


def covered_halos(queue: HaloWorkQueue) -> dict[int, list[tuple[int, int]]]:
    """Halo id -> list of (row_start, row_end) covering it (whole halos
    report a single ``(0, 0)`` marker)."""
    out: dict[int, list[tuple[int, int]]] = {}
    for it in queue.items:
        if it.kind == "slab":
            out.setdefault(it.halo_indices[0], []).append((it.row_start, it.row_end))
        else:
            for h in it.halo_indices:
                out.setdefault(h, []).append((0, 0))
    return out


def modeled_imbalance(queue: HaloWorkQueue, workers: int) -> float:
    """Projected max/mean worker load of greedy LPT list scheduling."""
    loads = np.zeros(workers)
    for it in queue.items:
        loads[int(np.argmin(loads))] += it.cost
    mean = queue.total_cost / workers
    if loads.max() <= 0 or mean <= 0:
        return 1.0
    return float(loads.max() / mean)
