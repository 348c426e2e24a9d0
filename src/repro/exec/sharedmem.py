"""Zero-copy shared-memory particle arrays for the execution engine.

The paper's per-halo analysis kernels are bandwidth-hungry: shipping a
pickled copy of the particle arrays to every worker process would cost
O(P) serialization per worker and multiply resident memory by the
worker count.  :class:`SharedParticleStore` instead places each array in
a POSIX shared-memory segment (:mod:`multiprocessing.shared_memory`);
workers *attach* and get live NumPy views — zero copies, zero pickling
of bulk data, identical bytes in every process (a prerequisite for the
engine's bit-identical-results guarantee).

Lifecycle::

    store = SharedParticleStore.create(pos=pos, tags=tags, labels=labels)
    spec = store.spec                 # tiny, picklable, sent to workers
    ...                               # workers: SharedParticleStore.attach(spec)
    store.unlink()                    # owner frees the segments

Workers must ``close()`` (not ``unlink()``) their attachment; the
creating process owns the segments and frees them once the batch is
collected.  Both are idempotent and also run via the context-manager
protocol.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Iterator, Mapping

import numpy as np

from ..check.sanitize import track_store, untrack_store
from ..obs import get_recorder

__all__ = ["SharedParticleStore"]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering a second owner.

    Python >= 3.13 supports ``track=False`` which keeps the resource
    tracker from double-counting (and spuriously unlinking) segments
    attached by worker processes; on older versions plain attachment is
    used and the creating process remains the single unlinker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - depends on Python version
        return shared_memory.SharedMemory(name=name)


class SharedParticleStore:
    """A named bundle of NumPy arrays living in shared memory.

    Create with :meth:`create` (copies each array into its own segment),
    ship :attr:`spec` to workers, re-open with :meth:`attach`.  Arrays
    are exposed by name via :meth:`array` / ``store["pos"]``; attached
    views are writable but the engine treats them as read-only inputs.
    """

    def __init__(
        self,
        segments: dict[str, shared_memory.SharedMemory],
        spec: dict[str, tuple[str, tuple[int, ...], str]],
        owner: bool,
    ) -> None:
        self._segments = segments
        self._spec = spec
        self._owner = owner
        self._closed = False
        self._arrays: dict[str, np.ndarray] = {
            field: np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=segments[field].buf)
            for field, (_, shape, dtype_str) in spec.items()
        }

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls, names: Mapping[str, str] | None = None, /, **arrays: np.ndarray
    ) -> "SharedParticleStore":
        """Copy keyword arrays into fresh shared-memory segments.

        ``names`` (field -> segment name) fixes the segment names up
        front, so a caller can record them before the segments exist;
        by default each segment gets a fresh random name.
        """
        segments: dict[str, shared_memory.SharedMemory] = {}
        spec: dict[str, tuple[str, tuple[int, ...], str]] = {}
        try:
            for field, value in arrays.items():
                arr = np.ascontiguousarray(value)
                nbytes = max(int(arr.nbytes), 1)  # zero-size arrays need 1 byte
                shm = shared_memory.SharedMemory(
                    name=names[field] if names else None, create=True, size=nbytes
                )
                segments[field] = shm
                view: np.ndarray = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                spec[field] = (shm.name, tuple(arr.shape), arr.dtype.str)
        except (OSError, MemoryError, ValueError) as exc:
            # OSError/MemoryError: segment allocation failed (e.g. /dev/shm
            # full); ValueError: un-mappable array shape/dtype.  Release the
            # segments already created, report, and re-raise — a half-built
            # store must never escape.
            get_recorder().event(
                "sharedmem.create_failed",
                level="error",
                error=f"{type(exc).__name__}: {exc}",
                segments_rolled_back=len(segments),
            )
            for shm in segments.values():
                shm.close()
                shm.unlink()
            raise
        store = cls(segments, spec, owner=True)
        track_store(store)  # REPRO_SANITIZE=1 leak tracking (no-op otherwise)
        return store

    @classmethod
    def attach(
        cls,
        spec: Mapping[str, tuple[str, tuple[int, ...], str]],
        adopt: bool = False,
    ) -> "SharedParticleStore":
        """Re-open a store from its picklable :attr:`spec` (worker side).

        With ``adopt=True`` the attaching process *takes ownership* of
        the segments (the counterpart of :meth:`release` on the sender):
        its ``unlink()`` frees them, and the leak tracker holds it
        accountable.  Used by the SPMD process transport, where message
        payloads are created by one rank and freed by their receiver.
        """
        segments = {
            field: _attach_segment(name) for field, (name, _, _) in spec.items()
        }
        store = cls(segments, dict(spec), owner=adopt)
        if adopt:
            track_store(store)
        return store

    # -- access ---------------------------------------------------------------

    @property
    def spec(self) -> dict[str, tuple[str, tuple[int, ...], str]]:
        """Picklable description: ``field -> (segment, shape, dtype)``."""
        return dict(self._spec)

    @property
    def fields(self) -> list[str]:
        return list(self._spec)

    @property
    def nbytes(self) -> int:
        """Total shared bytes across all segments."""
        return sum(
            int(np.prod(shape)) * np.dtype(dtype).itemsize
            for _, shape, dtype in self._spec.values()
        )

    def array(self, field: str) -> np.ndarray:
        """Zero-copy view of one array (valid until :meth:`close`)."""
        if self._closed:
            raise RuntimeError("shared store is closed")
        return self._arrays[field]

    def __getitem__(self, field: str) -> np.ndarray:
        return self.array(field)

    def __contains__(self, field: str) -> bool:
        return field in self._spec

    def __iter__(self) -> Iterator[str]:
        return iter(self._spec)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        self._arrays.clear()
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def release(self) -> None:
        """Hand segment ownership to another process without freeing.

        Drops this process's mapping and its leak-tracker entry but keeps
        the segments alive: the receiver that re-opens them with
        ``attach(spec, adopt=True)`` becomes the new owner/unlinker.
        """
        if self._owner:
            self._owner = False
            untrack_store(self)
        self.close()

    def unlink(self) -> None:
        """Free the segments (owner only; implies :meth:`close`)."""
        segments = dict(self._segments)
        self.close()
        if not self._owner:
            return
        self._owner = False
        for shm in segments.values():
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        untrack_store(self)  # segments are gone: clear the leak-tracker entry

    def __enter__(self) -> "SharedParticleStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()
