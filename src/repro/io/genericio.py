"""Block-structured binary snapshot format (GenericIO analogue).

HACC writes its outputs with GenericIO: each rank contributes one
*block* of per-particle variables, blocks are aggregated into a smaller
number of files (the paper aggregates 128 Titan nodes per file, giving
128 files x 128 blocks for the Q Continuum Level 2 data), and every
block carries a checksum.

This module reproduces that layout:

* a file holds a schema (ordered variable names + dtypes) and N blocks;
* each block is one rank's rows for every variable, stored contiguously
  per variable (SoA), with a CRC32 per variable;
* blocks are independently readable — an analysis job can read a single
  block without touching the rest of the file (how the Moonlight
  single-node jobs consumed one block each).

File layout (little-endian)::

    magic "RGIO1\\0"            6 bytes
    header_json_len             uint64
    header_json                 UTF-8 JSON: schema, block index
    block data ...              raw variable bytes, per block, per var

Failure model (see ``docs/failures.md``): writes and block reads run
under a :class:`~repro.faults.RetryPolicy` at the ``"io.write"`` /
``"io.read"`` injection sites.  Only injected faults and ``OSError``
(transient file-system hiccups) are retried — a write simply re-opens
and re-writes the file (idempotent), a read re-reads the block.
Deterministic corruption (:class:`GenericIOError` on bad magic or CRC
mismatch) propagates immediately: re-reading a corrupt file cannot
help, and callers keep catching the type they already catch.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from ..faults import FaultInjected, RetryPolicy, maybe_inject, resolve_retry
from ..obs import get_recorder

__all__ = ["GenericIOError", "write_genericio", "read_genericio", "read_block", "GenericIOFile"]

MAGIC = b"RGIO1\x00"


class GenericIOError(RuntimeError):
    """Raised on malformed files or checksum mismatches."""


@dataclass(frozen=True)
class _BlockEntry:
    nrows: int
    offsets: dict[str, int]  # variable -> absolute file offset
    crcs: dict[str, int]


def _dtype_token(dt: np.dtype) -> str:
    return np.dtype(dt).str  # e.g. '<f4'


def write_genericio(
    path: str | os.PathLike,
    blocks: list[dict[str, np.ndarray]],
    retry: RetryPolicy | None = None,
    meta: dict | None = None,
) -> int:
    """Write ``blocks`` (one dict of equal-length arrays per rank) to ``path``.

    All blocks must share the same variable names and dtypes.  Returns the
    number of payload bytes written (used by the I/O cost accounting).
    The physical write runs under ``retry`` (``None`` → the tree-wide
    default) at the ``"io.write"`` fault site; re-writing is idempotent.
    The file appears under ``path`` only once complete: it is written
    under a hidden sibling name and renamed (atomic, not fsynced).
    ``meta`` is an optional JSON-serializable dict stored in the header
    (physical parameters like the box side, slab ordering flags) and
    exposed as :attr:`GenericIOFile.meta`.
    """
    if not blocks:
        raise ValueError("need at least one block")
    schema = [(name, _dtype_token(arr.dtype)) for name, arr in blocks[0].items()]
    names = [n for n, _ in schema]
    for bi, blk in enumerate(blocks):
        if list(blk.keys()) != names:
            raise ValueError(f"block {bi} variables {list(blk)} != schema {names}")
        n = len(next(iter(blk.values())))
        for name, arr in blk.items():
            if len(arr) != n:
                raise ValueError(f"block {bi} variable {name!r} length mismatch")

    # First pass: compute sizes to build the block index.
    index = []
    payload_bytes = 0
    for blk in blocks:
        entry = {"nrows": int(len(next(iter(blk.values())))), "vars": {}}
        for name, arr in blk.items():
            arr = np.ascontiguousarray(arr)
            raw = arr.tobytes()
            entry["vars"][name] = {
                "nbytes": len(raw),
                "crc": zlib.crc32(raw) & 0xFFFFFFFF,
                "shape": list(arr.shape),
            }
            payload_bytes += len(raw)
        index.append(entry)

    header = {"schema": schema, "blocks": index}
    if meta:
        header["meta"] = meta
    header_json = json.dumps(header).encode()

    # Assign offsets now that the header size is known.
    base = len(MAGIC) + 8 + len(header_json)
    offset = base
    for entry in index:
        for name in names:
            entry["vars"][name]["offset"] = offset
            offset += entry["vars"][name]["nbytes"]
    header_json = json.dumps(header).encode()
    # Header length may change once offsets are embedded; fix point it.
    while True:
        base = len(MAGIC) + 8 + len(header_json)
        changed = False
        offset = base
        for entry in index:
            for name in names:
                if entry["vars"][name]["offset"] != offset:
                    entry["vars"][name]["offset"] = offset
                    changed = True
                offset += entry["vars"][name]["nbytes"]
        header_json = json.dumps(header).encode()
        if not changed:
            break

    rec = get_recorder()
    fname = os.path.basename(os.fspath(path))
    # written under a hidden sibling name, then renamed: a listener
    # globbing for the final name never sees a half-written file
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".{fname}.tmp.{os.getpid()}")

    def _write_attempt() -> None:
        maybe_inject("io.write", fname)
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header_json).to_bytes(8, "little"))
            fh.write(header_json)
            for blk in blocks:
                for name in names:
                    fh.write(np.ascontiguousarray(blk[name]).tobytes())
        os.replace(tmp, path)

    with rec.span("io.write", path=os.fspath(path), nbytes=payload_bytes):
        resolve_retry(retry).run(
            _write_attempt,
            site="io.write",
            key=fname,
            retryable=(FaultInjected, OSError),
        )
    rec.counter("io_write_bytes_total").inc(payload_bytes)
    return payload_bytes


class GenericIOFile:
    """Reader handle exposing the schema and per-block access.

    Block reads run under ``retry`` (``None`` → the tree-wide default)
    at the ``"io.read"`` fault site; injected faults and ``OSError``
    are retried, :class:`GenericIOError` (corruption) is not.

    CRC validation is *lazy* by default: opening the file parses only
    the header, and each block's checksums are verified when that block
    is first read — a chunked reader never pays full-file checksum cost
    up front.  Pass ``verify="eager"`` to restore whole-file validation
    at open (every section CRC checked before the constructor returns).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        retry: RetryPolicy | None = None,
        verify: str = "lazy",
    ):
        if verify not in ("lazy", "eager"):
            raise ValueError(f"verify must be 'lazy' or 'eager', got {verify!r}")
        self.path = os.fspath(path)
        self.retry = resolve_retry(retry)
        with open(self.path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise GenericIOError(f"{self.path}: bad magic {magic!r}")
            hlen = int.from_bytes(fh.read(8), "little")
            header = json.loads(fh.read(hlen).decode())
        self.schema: list[tuple[str, str]] = [tuple(s) for s in header["schema"]]
        self._blocks = header["blocks"]
        self.meta: dict = header.get("meta", {})
        if verify == "eager":
            self._verify_all()

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def variables(self) -> list[str]:
        return [name for name, _ in self.schema]

    def block_rows(self, block: int) -> int:
        """Row count of one block without reading its data."""
        return int(self._blocks[block]["nrows"])

    @property
    def total_rows(self) -> int:
        """Total row count across all blocks (header only, no data read)."""
        return sum(int(entry["nrows"]) for entry in self._blocks)

    def _verify_all(self) -> None:
        """Eager open-time validation: CRC-check every section once."""
        with get_recorder().span("io.verify", path=self.path, blocks=self.num_blocks):
            for block in range(self.num_blocks):
                entry = self._blocks[block]
                with open(self.path, "rb") as fh:
                    for name, _ in self.schema:
                        var = entry["vars"][name]
                        fh.seek(var["offset"])
                        raw = fh.read(var["nbytes"])
                        if len(raw) != var["nbytes"]:
                            raise GenericIOError(
                                f"{self.path} block {block} var {name}: truncated"
                            )
                        if (zlib.crc32(raw) & 0xFFFFFFFF) != var["crc"]:
                            raise GenericIOError(
                                f"{self.path} block {block} var {name}: CRC mismatch"
                            )

    def read_block(
        self,
        block: int,
        verify: bool = True,
        variables: list[str] | None = None,
    ) -> dict[str, np.ndarray]:
        """Read one block, optionally verifying per-variable CRC32.

        ``variables`` restricts the read to a subset of columns (schema
        order); the default reads every variable.  The physical read is
        retried on injected faults / ``OSError``; a CRC mismatch raises
        :class:`GenericIOError` immediately.
        """
        if not 0 <= block < self.num_blocks:
            raise IndexError(f"block {block} out of range [0, {self.num_blocks})")
        names = self._select(variables)
        key = f"{os.path.basename(self.path)}:{block}"
        rec = get_recorder()
        with rec.span("io.read_block", path=self.path, block=block):
            out, nbytes = self.retry.call(
                self._read_block_attempt,
                block,
                verify,
                key,
                names,
                site="io.read",
                key=key,
                retryable=(FaultInjected, OSError),
            )
        rec.counter("io_read_bytes_total").inc(nbytes)
        return out

    def _select(self, variables: list[str] | None) -> list[tuple[str, str]]:
        """Schema entries for a requested variable subset (schema order)."""
        if variables is None:
            return self.schema
        known = dict(self.schema)
        missing = [v for v in variables if v not in known]
        if missing:
            raise KeyError(f"{self.path}: unknown variables {missing}")
        want = set(variables)
        return [(name, dtok) for name, dtok in self.schema if name in want]

    def _read_block_attempt(
        self, block: int, verify: bool, key: str, names: list[tuple[str, str]]
    ) -> tuple[dict[str, np.ndarray], int]:
        """One physical block read (the unit the retry policy repeats)."""
        maybe_inject("io.read", key)
        entry = self._blocks[block]
        out: dict[str, np.ndarray] = {}
        nbytes = 0
        with open(self.path, "rb") as fh:
            for name, dtok in names:
                var = entry["vars"][name]
                fh.seek(var["offset"])
                raw = fh.read(var["nbytes"])
                if len(raw) != var["nbytes"]:
                    raise GenericIOError(f"{self.path} block {block} var {name}: truncated")
                if verify and (zlib.crc32(raw) & 0xFFFFFFFF) != var["crc"]:
                    raise GenericIOError(
                        f"{self.path} block {block} var {name}: CRC mismatch"
                    )
                arr = np.frombuffer(raw, dtype=np.dtype(dtok))
                out[name] = arr.reshape(var["shape"])
                nbytes += var["nbytes"]
        return out, nbytes

    def iter_chunks(
        self,
        chunk_rows: int,
        variables: list[str] | None = None,
        verify: bool = True,
    ):
        """Iterate fixed-size row chunks across block boundaries.

        Yields dicts of arrays with exactly ``chunk_rows`` rows each
        (the final chunk may be shorter).  Blocks are read — and their
        CRCs checked — one at a time as the iteration reaches them, so
        peak memory is O(chunk + one block) regardless of file size.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        names = [name for name, _ in self._select(variables)]
        pending: dict[str, list[np.ndarray]] = {name: [] for name in names}
        buffered = 0

        def take(count: int) -> dict[str, np.ndarray]:
            nonlocal buffered
            out: dict[str, np.ndarray] = {}
            for name in names:
                parts: list[np.ndarray] = []
                need = count
                queue = pending[name]
                while need > 0:
                    head = queue[0]
                    if len(head) <= need:
                        parts.append(queue.pop(0))
                        need -= len(head)
                    else:
                        parts.append(head[:need])
                        queue[0] = head[need:]
                        need = 0
                out[name] = parts[0] if len(parts) == 1 else np.concatenate(parts)
            buffered -= count
            return out

        for block in range(self.num_blocks):
            data = self.read_block(block, verify=verify, variables=variables)
            nrows = self.block_rows(block)
            for name in names:
                pending[name].append(data[name])
            buffered += nrows
            while buffered >= chunk_rows:
                yield take(chunk_rows)
        if buffered:
            yield take(buffered)

    def read_all(self, verify: bool = True) -> dict[str, np.ndarray]:
        """Concatenate every block into one bundle (rank order)."""
        with get_recorder().span("io.read", path=self.path, blocks=self.num_blocks):
            parts = [self.read_block(b, verify=verify) for b in range(self.num_blocks)]
            return {
                name: np.concatenate([p[name] for p in parts])
                for name, _ in self.schema
            }


def read_genericio(path: str | os.PathLike, verify: bool = True) -> dict[str, np.ndarray]:
    """Read and concatenate all blocks of a GenericIO file."""
    return GenericIOFile(path).read_all(verify=verify)


def read_block(path: str | os.PathLike, block: int, verify: bool = True) -> dict[str, np.ndarray]:
    """Read a single block of a GenericIO file."""
    return GenericIOFile(path).read_block(block, verify=verify)
