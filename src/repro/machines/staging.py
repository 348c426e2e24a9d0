"""The Level 2 device: where the in-situ leg hands data to the off-line leg.

The paper hands Level 2 products over through a file system, or — its
hypothetical in-transit variant — through "a separate memory device
(such as NVRAM) that is shared between the main HPC system and the
analysis cluster".  Either way the path is the same: the Level 2 writer
``put``s a product, the :class:`~repro.machines.listener.Listener` scans
the device's ``names``, each off-line job ``get``s a reader with the
``read_block`` / ``read_all`` contract, and a job that succeeded
``release``s its item.  :class:`Level2Device` is that interface, and
:func:`level2_device` is the one place that turns a spool path into a
device (see ARCHITECTURE.md, "The Level 2 hand-off").

Two devices implement it:

* :class:`SpoolDirectory` — GenericIO files in a directory, written
  atomically; keys are full file paths.  ``release`` keeps the file:
  Level 2 is the paper's disk product.
* :class:`StagingArea` — the in-transit device, an in-process object
  store with byte capacity; ``release`` frees the item's bytes.

``get`` never consumes an item, so a retried job reads it again and a
dead-lettered one stays on the device.

Failure model (see ``docs/failures.md``): the spool's files move under
the ``"io.write"`` / ``"io.read"`` sites of :mod:`repro.io.genericio`;
each staged put/get transfer runs under a
:class:`~repro.faults.RetryPolicy` at the ``"staging.put"`` /
``"staging.get"`` sites — the flaky-interconnect model for the NVRAM
device.  Only injected faults are retried; real back-pressure
(``MemoryError`` when the device is full) and consumer errors
(``KeyError``) propagate immediately.
"""

from __future__ import annotations

import fnmatch
import glob
import os
import threading
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..faults import FaultInjected, RetryPolicy, maybe_inject, resolve_retry
from ..io.genericio import GenericIOFile, write_genericio
from ..obs import get_recorder

__all__ = [
    "Level2Device",
    "Level2Reader",
    "SpoolDirectory",
    "StagedItem",
    "StagingArea",
    "level2_device",
]


class Level2Reader(Protocol):
    """One Level 2 product, opened: ``path`` names it (its key)."""

    path: str

    def read_block(self, block: int) -> dict[str, np.ndarray]: ...

    def read_all(self) -> dict[str, np.ndarray]: ...


class Level2Device(Protocol):
    """Where Level 2 products go between the in-situ and off-line legs.

    ``kind`` names the device in events and jobs; ``path`` is its
    directory (``None`` for a device off the file system).
    """

    kind: str
    path: str | None

    def put(self, name: str, blocks: list[dict[str, np.ndarray]]) -> str:
        """Store ``blocks`` as product ``name``; returns its key."""

    def names(self, pattern: str = "*") -> list[str]:
        """Sorted keys of the products matching ``pattern``."""

    def get(self, key: str) -> Level2Reader:
        """A reader over one product; the product stays on the device."""

    def release(self, key: str) -> None:
        """The product's consumer is done with it."""


def level2_device(where: str | os.PathLike | Level2Device) -> Level2Device:
    """A spool path becomes a :class:`SpoolDirectory`; a device passes through."""
    return SpoolDirectory(where) if isinstance(where, (str, os.PathLike)) else where


class SpoolDirectory:
    """Level 2 as GenericIO files in a spool directory.

    ``put`` creates the directory and writes the file atomically (it
    appears under its name only once complete), so a listener globbing
    the spool never sees half a product.  A directory not yet created
    lists empty.
    """

    kind = "spool"

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)

    def put(self, name: str, blocks: list[dict[str, np.ndarray]]) -> str:
        os.makedirs(self.path, exist_ok=True)
        key = os.path.join(self.path, name)
        write_genericio(key, blocks)
        return key

    def names(self, pattern: str = "*") -> list[str]:
        return sorted(glob.glob(os.path.join(self.path, pattern)))

    def get(self, key: str) -> Level2Reader:
        return GenericIOFile(key)

    def release(self, key: str) -> None:
        """Keep the file: Level 2 is the paper's disk product."""


@dataclass
class StagedItem:
    """One staged data product: named blocks of named arrays."""

    path: str
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
    listener lists their ``names`` and its jobs ``get`` them.  Keys are
    the item names.  Capacity is enforced in bytes (NVRAM devices are
    finite); producers get a ``MemoryError`` when the device is full —
    the back-pressure a real burst buffer exhibits — until ``release``
    frees space.

    ``retry`` governs transfer retries at the ``"staging.put"`` /
    ``"staging.get"`` fault-injection sites (``None`` → the tree-wide
    default policy); only :class:`~repro.faults.FaultInjected` is
    retried, so real back-pressure still propagates immediately.
    """

    kind = "staging"
    path = None

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

    def put(self, name: str, blocks: list[dict[str, np.ndarray]]) -> str:
        """Stage an item under ``name`` (its key)."""
        rec = get_recorder()
        item = StagedItem(
            path=name,
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
        return name

    # -- consumer side ---------------------------------------------------------

    def names(self, pattern: str = "*") -> list[str]:
        with self._lock:
            return sorted(fnmatch.filter(self._items, pattern))

    def used_bytes_unlocked(self) -> int:
        return sum(i.nbytes for i in self._items.values())

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self.used_bytes_unlocked()

    def get(self, key: str) -> StagedItem:
        """Fetch a staged item; it stays staged until :meth:`release`."""
        self._transfer("staging.get", key)
        with self._lock:
            if key not in self._items:
                raise KeyError(f"no staged item {key!r}")
            self.gets += 1
            return self._items[key]

    def release(self, key: str) -> None:
        """Free an item's device space once its consumer is done with it."""
        with self._lock:
            del self._items[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
