"""Cost-model-guided work decomposition for per-halo analysis.

The paper's load-imbalance villain (§3.3.2, Figure 4) is the n(n-1)
cost skew of per-halo MBP center finding: one 10M-particle halo costs
10^4 times a 100k one, so *placement* — not raw FLOPs — decides
wall-clock.  :class:`HaloWorkQueue` turns a halo catalog into a
schedule that attacks the skew from three sides:

1. **Splitting** — halos whose modeled cost exceeds a per-worker quantum
   are cut into row *slabs* (each slab computes the potentials of a row
   range against all members), so even a single dominant halo spreads
   across workers.  Only cost models that are row-separable support
   this (brute-force MBP is; the subhalo tree walk is not).
2. **LPT ordering** — remaining work items are sorted
   longest-processing-time-first, the classic 4/3-competitive greedy
   for makespan.
3. **Chunking** — small halos are packed into amortized chunks so the
   per-item dispatch overhead (queue round-trip, result pickling) is
   paid once per chunk instead of once per 40-particle halo.

The schedule is the item list itself: workers claim items in LPT order
through one cursor, so the first claims are the classic static LPT
assignment (one head item per worker) and every later claim goes to
whichever worker idles first — the greedy list scheduling behind the
4/3 bound.  The queue is a plain in-process structure; the engine
shares only the item list and that cursor with its workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["WorkItem", "HaloWorkQueue"]


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: a chunk of whole halos or a slab of one.

    ``kind`` is ``"halos"`` (``halo_indices`` are indices into the batch
    halo list, each processed whole) or ``"slab"`` (rows
    ``row_start:row_end`` of the single halo ``halo_indices[0]``).
    ``cost`` is the modeled pair-interaction count used for scheduling.
    """

    kind: str
    halo_indices: tuple[int, ...]
    cost: int
    row_start: int = 0
    row_end: int = 0

    @property
    def n_halos(self) -> int:
        return len(self.halo_indices)


@dataclass
class HaloWorkQueue:
    """A batch's work items, longest-processing-time first.

    ``total_cost`` is the modeled cost of the whole batch and
    ``n_split_halos`` the number of halos cut into row slabs.
    """

    items: list[WorkItem]
    total_cost: int = 0
    n_split_halos: int = 0

    @classmethod
    def build(
        cls,
        counts: Sequence[int] | np.ndarray,
        workers: int,
        cost_model: Callable[[np.ndarray], np.ndarray] | None = None,
        splittable: bool = True,
        split_factor: float = 2.0,
        chunk_factor: float = 16.0,
        min_split_rows: int = 256,
    ) -> "HaloWorkQueue":
        """Decompose a batch of per-halo tasks into scheduled work items.

        Parameters
        ----------
        counts:
            Particle count of each halo in the batch (index = halo id).
        workers:
            Worker processes the schedule targets.
        cost_model:
            Maps counts to modeled costs.  Defaults to the paper's MBP
            pair model ``n(n-1)`` (:func:`repro.analysis.centers.center_finding_cost`).
        splittable:
            Whether a single halo's work may be split into row slabs
            (True for centers, False for subhalos).
        split_factor:
            Halos costing more than ``total / (workers * split_factor)``
            are split; larger values split more aggressively.
        chunk_factor:
            Small halos are packed into chunks of roughly
            ``total / (workers * chunk_factor)`` cost each.
        min_split_rows:
            Never emit slabs thinner than this many rows (guards the
            slab kernel's vectorization efficiency).
        """
        if cost_model is None:
            from ..analysis.centers import center_finding_cost

            cost_model = center_finding_cost
        counts = np.asarray(counts, dtype=np.int64)
        n_halos = len(counts)
        workers = max(int(workers), 1)
        costs = np.maximum(cost_model(counts).astype(np.int64), 1)
        total = int(costs.sum())

        split_threshold = max(int(total / (workers * split_factor)), 1) if n_halos else 1
        chunk_target = max(int(total / (workers * chunk_factor)), 1) if n_halos else 1

        items: list[WorkItem] = []
        n_split = 0
        small: list[int] = []  # halo ids below the chunk target, cost-desc

        order = np.argsort(-costs, kind="stable")  # LPT over halos
        for h in order:
            h = int(h)
            c = int(costs[h])
            n = int(counts[h])
            if splittable and c > split_threshold and n >= 2 * min_split_rows:
                # row slabs: each computes rows [s, e) against all n members;
                # per-row cost is ~n pair terms, so even slabs equalize cost
                n_slabs = min(int(np.ceil(c / split_threshold)), n // min_split_rows)
                n_slabs = max(n_slabs, 1)
                bounds = np.linspace(0, n, n_slabs + 1).astype(int)
                n_split += 1
                for s, e in zip(bounds[:-1], bounds[1:]):
                    if e > s:
                        items.append(
                            WorkItem(
                                kind="slab",
                                halo_indices=(h,),
                                cost=int((e - s) * max(n - 1, 1)),
                                row_start=int(s),
                                row_end=int(e),
                            )
                        )
            elif c >= chunk_target:
                items.append(WorkItem(kind="halos", halo_indices=(h,), cost=c))
            else:
                small.append(h)

        # pack the small tail into amortized chunks (still cost-descending)
        chunk: list[int] = []
        chunk_cost = 0
        for h in small:
            chunk.append(h)
            chunk_cost += int(costs[h])
            if chunk_cost >= chunk_target:
                items.append(WorkItem(kind="halos", halo_indices=tuple(chunk), cost=chunk_cost))
                chunk = []
                chunk_cost = 0
        if chunk:
            items.append(WorkItem(kind="halos", halo_indices=tuple(chunk), cost=chunk_cost))

        # global LPT order over the final items
        items.sort(key=lambda it: -it.cost)

        return cls(items=items, total_cost=total, n_split_halos=n_split)

    @property
    def n_items(self) -> int:
        return len(self.items)
