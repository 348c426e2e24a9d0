"""In-transit staging: the shared-memory Level 2 data path.

The paper's third combined-workflow variant is "at this point only a
hypothetical implementation": instead of writing Level 2 data to disk,
"the data is now stored on a separate memory device and the analysis is
done *in-transit*.  This could be either NVRAM or an external memory
set-up that is connected to both the main HPC system as well as the
analysis cluster."

:class:`StagingArea` implements that device as an in-process object
store shared between the producing simulation and the consuming
analysis: named items (one per snapshot) with block structure, put/get
semantics, byte accounting, and optional consume-once draining.  Only
the transport changes, so it is not a second workflow: passed to
:func:`~repro.core.driver.run_combined_workflow` where the spool
directory goes, the Level 2 writer stages into it, the
:class:`~repro.machines.listener.Listener` scans its item names, and
the off-line job reads the :class:`StagedItem` through the same
``read_block`` / ``read_all`` contract as a GenericIO file — no Level 2
file touches disk.

Failure model (see ``docs/failures.md``): each put/get transfer runs
under a :class:`~repro.faults.RetryPolicy` at the ``"staging.put"`` /
``"staging.get"`` injection sites — the flaky-interconnect model for
the hypothetical NVRAM device.  Only injected faults are retried;
real back-pressure (``MemoryError`` when the device is full) and
consumer errors (``KeyError``) propagate immediately.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..faults import FaultInjected, RetryPolicy, maybe_inject, resolve_retry
from ..obs import get_recorder

__all__ = ["StagedItem", "StagingArea"]


@dataclass
class StagedItem:
    """One staged data product: named blocks of named arrays."""

    name: str
    blocks: list[dict[str, np.ndarray]]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for blk in self.blocks for a in blk.values())

    @property
    def n_rows(self) -> int:
        return sum(len(next(iter(blk.values()))) if blk else 0 for blk in self.blocks)

    def read_block(self, block: int) -> dict[str, np.ndarray]:
        """One block (same contract as GenericIOFile.read_block)."""
        return dict(self.blocks[block])

    def read_all(self) -> dict[str, np.ndarray]:
        """Concatenate all blocks (same contract as GenericIOFile.read_all)."""
        if not self.blocks:
            return {}
        keys = list(self.blocks[0].keys())
        return {
            k: np.concatenate([blk[k] for blk in self.blocks]) for k in keys
        }


class StagingArea:
    """Shared-memory staging device for in-transit workflows.

    Thread-safe: the simulation side ``put``s items while a co-scheduled
    listener lists their ``names`` and its jobs ``get`` them.  Capacity
    is enforced in bytes (NVRAM devices are finite); producers get a
    ``MemoryError`` when the device is full — the back-pressure a real
    burst buffer exhibits.

    ``retry`` governs transfer retries at the ``"staging.put"`` /
    ``"staging.get"`` fault-injection sites (``None`` → the tree-wide
    default policy); only :class:`~repro.faults.FaultInjected` is
    retried, so real back-pressure still propagates immediately.
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.capacity_bytes = capacity_bytes
        self.retry = resolve_retry(retry)
        self._items: dict[str, StagedItem] = {}
        self._lock = threading.Lock()
        self.bytes_staged_total = 0
        self.puts = 0
        self.gets = 0

    def _transfer(self, site: str, name: str) -> None:
        """One staged transfer attempt over the (injectable) interconnect."""
        self.retry.call(
            maybe_inject, site, name, site=site, key=name, retryable=(FaultInjected,)
        )

    # -- producer side ---------------------------------------------------------

    def put(self, name: str, blocks: list[dict[str, np.ndarray]]) -> int:
        """Stage an item; returns its size in bytes."""
        rec = get_recorder()
        item = StagedItem(
            name=name,
            blocks=[{k: np.asarray(v) for k, v in b.items()} for b in blocks],
        )
        self._transfer("staging.put", name)
        with rec.span("staging.put", item=name, nbytes=item.nbytes):
            with self._lock:
                if name in self._items:
                    raise KeyError(f"item {name!r} already staged")
                if (
                    self.capacity_bytes is not None
                    and self.used_bytes_unlocked() + item.nbytes > self.capacity_bytes
                ):
                    rec.event(
                        "staging.full",
                        level="error",
                        item=name,
                        nbytes=item.nbytes,
                        used=self.used_bytes_unlocked(),
                        capacity=self.capacity_bytes,
                    )
                    raise MemoryError(
                        f"staging area full: {self.used_bytes_unlocked()} + "
                        f"{item.nbytes} > {self.capacity_bytes}"
                    )
                self._items[name] = item
                self.bytes_staged_total += item.nbytes
                self.puts += 1
                rec.counter("staging_bytes_staged_total").inc(item.nbytes)
        return item.nbytes

    # -- consumer side ---------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._items)

    def used_bytes_unlocked(self) -> int:
        return sum(i.nbytes for i in self._items.values())

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self.used_bytes_unlocked()

    def get(self, name: str, drain: bool = True) -> StagedItem:
        """Fetch a staged item; ``drain`` frees the device space."""
        self._transfer("staging.get", name)
        with self._lock:
            if name not in self._items:
                raise KeyError(f"no staged item {name!r}")
            item = self._items.pop(name) if drain else self._items[name]
            self.gets += 1
            return item

    def discard(self, name: str) -> None:
        """Free an item's device space once its consumer is done with it."""
        with self._lock:
            del self._items[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
