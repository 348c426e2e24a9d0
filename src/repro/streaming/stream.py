"""Particle streams: the chunked input side of the one-pass engine.

A :class:`ParticleStream` yields fixed-size particle chunks — dicts with
``"pos"`` (``(n, 3)`` float64, box coordinates) and ``"tag"`` (``(n,)``
int64, globally unique) — **slab-ordered**: the wrapped x coordinate is
globally non-decreasing across chunks.  That ordering is the load-bearing
contract of the incremental halo finder (see ``docs/streaming.md``): it
is what bounds the boundary ring the finder must keep resident, and
:class:`~repro.streaming.fof.StreamingFOF` verifies it chunk by chunk.

Two concrete sources present the same iterator:

:class:`ArrayStream`
    In-memory arrays (or a :class:`~repro.sim.particles.Particles`
    snapshot), slab-sorted on construction — the shape the in-situ
    preview tier uses.

:class:`GenericIOStream`
    An on-disk GenericIO file written by :func:`write_slab_snapshot`,
    read block by block (CRC checked lazily per block) and re-chunked to
    ``chunk_rows`` without ever materializing the full snapshot.

Failure model: every chunk hand-off passes the ``"stream.read"`` fault
site under a :class:`~repro.faults.RetryPolicy` — injected faults and
transient ``OSError`` are retried without losing stream position, since
the guard fires before the chunk is consumed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

import numpy as np

from ..analysis.fof import wrap_periodic
from ..faults import FaultInjected, RetryPolicy, maybe_inject, resolve_retry
from ..io.genericio import GenericIOFile, write_genericio

if TYPE_CHECKING:
    from ..sim.particles import Particles

__all__ = [
    "ParticleStream",
    "ArrayStream",
    "GenericIOStream",
    "slab_order",
    "write_slab_snapshot",
]

Chunk = dict[str, np.ndarray]


@runtime_checkable
class ParticleStream(Protocol):
    """What the streaming engine consumes: a re-iterable chunk source.

    ``box`` is the periodic box side; ``chunk_rows`` the nominal chunk
    size (the last chunk may be shorter); ``n_total`` the total particle
    count when known (``None`` for unbounded sources).  Iteration yields
    slab-ordered ``{"pos", "tag"}`` chunks.
    """

    box: float
    chunk_rows: int

    @property
    def n_total(self) -> int | None: ...

    def __iter__(self) -> Iterator[Chunk]: ...


def slab_order(pos: np.ndarray, box: float) -> np.ndarray:
    """Stable permutation sorting particles by wrapped x (slab order)."""
    x = wrap_periodic(np.asarray(pos, dtype=np.float64)[:, 0], box)
    return np.argsort(x, kind="stable")


def _guard_chunk(retry: RetryPolicy, key: str) -> None:
    """One ``stream.read`` fault-site crossing, retried transparently.

    The guard runs *before* the chunk is handed to the consumer and
    consumes no stream state itself, so a retried attempt re-delivers
    the identical chunk — mid-stream transients cost retries, not data.
    """
    retry.run(
        lambda: maybe_inject("stream.read", key),
        site="stream.read",
        key=key,
        retryable=(FaultInjected, OSError),
    )


class ArrayStream:
    """Slab-ordered chunk view over in-memory particle arrays.

    Sorts (a copy of) the inputs by wrapped x on construction; iteration
    then just slices, so the same instance can be streamed many times
    (``check_determinism`` runs a campaign twice off one stream).
    """

    def __init__(
        self,
        pos: np.ndarray,
        box: float,
        tags: np.ndarray | None = None,
        chunk_rows: int = 65536,
        retry: RetryPolicy | None = None,
    ):
        if box <= 0:
            raise ValueError("box must be positive")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
        n = len(pos)
        tag = (
            np.arange(n, dtype=np.int64)
            if tags is None
            else np.asarray(tags, dtype=np.int64)
        )
        if len(tag) != n:
            raise ValueError("tags length mismatch")
        order = slab_order(pos, box)
        self._pos = wrap_periodic(pos[order], box)
        self._tag = tag[order]
        self.box = float(box)
        self.chunk_rows = int(chunk_rows)
        self._retry = resolve_retry(retry)

    @classmethod
    def from_particles(
        cls, particles: "Particles", chunk_rows: int = 65536
    ) -> "ArrayStream":
        """Stream view over a particle snapshot (tags narrowed to int64)."""
        return cls(
            particles.pos,
            box=particles.box,
            tags=np.asarray(particles.tag, dtype=np.int64),
            chunk_rows=chunk_rows,
        )

    @property
    def n_total(self) -> int | None:
        return len(self._tag)

    def __iter__(self) -> Iterator[Chunk]:
        n = len(self._tag)
        for i, start in enumerate(range(0, n, self.chunk_rows)):
            _guard_chunk(self._retry, f"array:{i}")
            stop = min(start + self.chunk_rows, n)
            yield {"pos": self._pos[start:stop], "tag": self._tag[start:stop]}


class GenericIOStream:
    """Slab-ordered chunk reader over a GenericIO snapshot file.

    The file must have been written in slab order (x globally
    non-decreasing across blocks — :func:`write_slab_snapshot` does
    this and stamps ``meta["slab_axis"] = 0``); the downstream finder
    verifies and raises otherwise.  Only one block plus one chunk is
    resident at a time, CRCs checked lazily as each block is reached.
    ``box`` defaults to the file's ``meta["box"]``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        chunk_rows: int = 65536,
        box: float | None = None,
        retry: RetryPolicy | None = None,
        verify: bool = True,
    ):
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.path = os.fspath(path)
        self._file = GenericIOFile(self.path, retry=retry)
        if box is None:
            box = self._file.meta.get("box")
            if box is None:
                raise ValueError(
                    f"{self.path}: no box given and none in the file meta"
                )
        self.box = float(box)
        self.chunk_rows = int(chunk_rows)
        self.verify = bool(verify)
        self._retry = resolve_retry(retry)

    @property
    def n_total(self) -> int | None:
        return self._file.total_rows

    @property
    def num_blocks(self) -> int:
        return self._file.num_blocks

    def __iter__(self) -> Iterator[Chunk]:
        fname = os.path.basename(self.path)
        chunks = self._file.iter_chunks(
            self.chunk_rows, variables=["pos", "tag"], verify=self.verify
        )
        for i, data in enumerate(chunks):
            _guard_chunk(self._retry, f"{fname}:{i}")
            yield {
                "pos": np.asarray(data["pos"], dtype=np.float64),
                "tag": np.asarray(data["tag"], dtype=np.int64),
            }


def write_slab_snapshot(
    path: str | os.PathLike,
    pos: np.ndarray,
    box: float,
    tags: np.ndarray | None = None,
    block_rows: int = 262144,
    retry: RetryPolicy | None = None,
) -> int:
    """Write a slab-ordered GenericIO snapshot for streaming analysis.

    Sorts particles by wrapped x, splits them into blocks of
    ``block_rows`` (the independently CRC'd read unit), and stamps the
    box side and slab axis into the header meta so
    :class:`GenericIOStream` is self-describing.  Returns payload bytes.
    """
    if box <= 0:
        raise ValueError("box must be positive")
    if block_rows < 1:
        raise ValueError("block_rows must be >= 1")
    pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
    n = len(pos)
    tag = (
        np.arange(n, dtype=np.int64)
        if tags is None
        else np.asarray(tags, dtype=np.int64)
    )
    if len(tag) != n:
        raise ValueError("tags length mismatch")
    order = slab_order(pos, box)
    spos = wrap_periodic(pos[order], box)
    stag = tag[order]
    blocks = []
    for start in range(0, max(n, 1), block_rows):
        stop = min(start + block_rows, n)
        blocks.append({"pos": spos[start:stop], "tag": stag[start:stop]})
    return write_genericio(
        path,
        blocks,
        retry=retry,
        meta={"box": float(box), "slab_axis": 0, "n_total": int(n)},
    )
