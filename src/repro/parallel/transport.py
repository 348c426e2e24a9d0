"""Pluggable SPMD transports: thread reference vs. process-backed ranks.

:mod:`repro.parallel.communicator` runs every rank program over one
:class:`~repro.parallel.communicator.World`; a transport only chooses
where the ranks run and hands the world its primitives.  This module is
the **process transport**: one forked OS process per rank, so rank
programs execute with real parallelism instead of GIL time-slicing.  Its
primitives are multiprocessing queues as the per-rank inboxes, a
multiprocessing barrier, the process group's abort event, a shared
first-failure value and :class:`_ShmCodec`.  The thread transport stays
the deterministic reference — both move *logically identical* payloads,
so a rank program produces bit-for-bit the same results on either
(property-tested in ``tests/test_parallel_transport.py``).

The codec pickles each message before ``send`` returns (so the sender
may reuse its buffers at once), except NumPy arrays at or above
``SpmdConfig.shm_threshold`` bytes: those are placed in
:class:`~repro.exec.sharedmem.SharedParticleStore` segments and only the
tiny spec crosses the queue — the receiving rank adopts the segments,
materialises the arrays and frees them.  Segment names are chosen before
the segments exist, so the parent reaps anything a crashed rank created
or a crashed receiver never adopted (no leaked segments on any failure
path).

The ranks are forked, watched, aborted and reaped by one
:class:`~repro.exec.supervisor.ProcessGroup` (lane ``spmd-rank``), which
also carries the fault plan and ``TraceContext`` in and the rank-local
telemetry back into the parent trace.  Forking lets rank programs be
closures over parent arrays exactly like the thread transport.
"""

from __future__ import annotations

import os
import pickle
import secrets
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..exec.sharedmem import SharedParticleStore, _attach_segment
from ..exec.supervisor import MemberContext, ProcessGroup
from ..obs import get_recorder
from .communicator import RankReport, World, _rank_main

__all__ = ["RemoteRankError", "SpmdConfig", "resolve_transport"]

#: Environment variable selecting the default transport for ``run_spmd``.
TRANSPORT_ENV = "REPRO_SPMD_TRANSPORT"

_VALID_TRANSPORTS = ("thread", "process")


@dataclass(frozen=True)
class SpmdConfig:
    """Transport selection + tuning knobs for :func:`run_spmd`.

    Parameters
    ----------
    transport:
        ``"thread"`` (deterministic in-process reference) or
        ``"process"`` (one forked OS process per rank).
    timeout:
        Per-wait deadlock timeout in seconds; ``None`` inherits the
        ``run_spmd(timeout=...)`` argument.
    shm_threshold:
        NumPy payloads of at least this many bytes bypass pickling and
        ride shared-memory segments (process transport only).
    """

    transport: str = "thread"
    timeout: float | None = None
    shm_threshold: int = 65536

    def __post_init__(self) -> None:
        if self.transport not in _VALID_TRANSPORTS:
            raise ValueError(
                f"unknown SPMD transport {self.transport!r} "
                f"(expected one of {_VALID_TRANSPORTS})"
            )


def resolve_transport(spec: "str | SpmdConfig | None") -> SpmdConfig:
    """Normalise a ``transport=`` argument into an :class:`SpmdConfig`.

    ``None`` consults the ``REPRO_SPMD_TRANSPORT`` environment variable
    (default ``"thread"``), so whole test suites can be re-run over the
    process transport without touching call sites.
    """
    if isinstance(spec, SpmdConfig):
        return spec
    if spec is None:
        spec = os.environ.get(TRANSPORT_ENV, "").strip().lower() or "thread"
    return SpmdConfig(transport=spec)


# -- payload codec -------------------------------------------------------------
#
# A message is pickled in ``deliver``, before ``send`` returns, except bulk
# arrays: those are copied once into shared-memory segments by the sender
# and adopted (attach + unlink) by the receiver, so serialisation cost is
# O(structure), not O(data).  Segment names are fixed before the segments
# exist — ``<prefix><rank>_<n>`` with a per-rank count in shared memory —
# so the parent can reap what no receiver adopted, whenever a rank died.


class _ShmSlot:
    """Placeholder marking where a shared-memory array goes on decode."""

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key


def _map_leaves(x: Any, leaf: Callable[[Any], Any]) -> Any:
    """Rebuild tuples, lists and dicts around ``leaf`` of everything else."""
    if isinstance(x, tuple):
        return tuple(_map_leaves(v, leaf) for v in x)
    if isinstance(x, list):
        return [_map_leaves(v, leaf) for v in x]
    if isinstance(x, dict):
        return {k: _map_leaves(v, leaf) for k, v in x.items()}
    return leaf(x)


class _ShmCodec:
    """Process-transport payload codec: pickle now, big arrays via shm."""

    def __init__(self, ctx: Any, nranks: int, threshold: int) -> None:
        self.threshold = threshold
        self.prefix = f"psm_{secrets.token_hex(4)}_"
        # segments named so far, per sending rank (each slot has one writer)
        self.named = ctx.Array("q", nranks, lock=False)

    def encode(self, obj: Any, rank: int) -> bytes:
        arrays: dict[str, np.ndarray] = {}

        def hoist(x: Any) -> Any:
            if isinstance(x, np.ndarray) and not x.dtype.hasobject and x.nbytes >= self.threshold:
                key = f"a{len(arrays)}"
                arrays[key] = x
                return _ShmSlot(key)
            return x

        template = _map_leaves(obj, hoist)
        spec = None
        if arrays:
            first = self.named[rank]
            names = {key: f"{self.prefix}{rank}_{first + i}" for i, key in enumerate(arrays)}
            # the reaper knows these names before the segments exist
            self.named[rank] = first + len(arrays)
            store = SharedParticleStore.create(names, **arrays)
            try:
                spec = store.spec
            finally:
                # ownership transfers to the receiver (or the parent
                # reaper): drop this mapping without freeing the segments
                store.release()
        return pickle.dumps((template, spec), protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def decode(wire: bytes) -> Any:
        """Reverse :meth:`encode`; adopts and frees shm segments."""
        template, spec = pickle.loads(wire)
        if spec is None:
            return template
        store = SharedParticleStore.attach(spec, adopt=True)
        try:
            arrays = {key: np.array(store.array(key), copy=True) for key in store.fields}
        finally:
            store.unlink()
        return _map_leaves(template, lambda x: arrays[x.key] if isinstance(x, _ShmSlot) else x)

    def reap(self) -> int:
        """Unlink every named segment no receiver adopted (or that never existed)."""
        reaped = 0
        for rank, count in enumerate(self.named):
            for n in range(count):
                try:
                    seg = _attach_segment(f"{self.prefix}{rank}_{n}")
                except FileNotFoundError:
                    continue  # adopted and freed by its receiver — the common case
                try:
                    seg.unlink()
                    reaped += 1
                finally:
                    seg.close()
        return reaped


# -- the ranks -------------------------------------------------------------------


class RemoteRankError(RuntimeError):
    """Carries the formatted traceback of a failed SPMD rank process."""

    def __init__(self, rank: int, formatted_traceback: str) -> None:
        super().__init__(f"rank {rank} traceback:\n{formatted_traceback}")
        self.rank = rank
        self.formatted_traceback = formatted_traceback


def _process_rank_main(
    world: World,
    rank: int,
    fn: Callable[..., Any],
    fn_args: tuple[Any, ...],
    fn_kwargs: dict[str, Any],
    hop: MemberContext,
    result_q: Any,
) -> None:
    """Entry point of one forked rank: the rank entry, then its report."""
    hop.install()

    def program(comm: Any, *args: Any, **kwargs: Any) -> Any:
        # encoded inside the rank's try, so an unshippable result is its error
        return world.codec.encode(fn(comm, *args, **kwargs), rank)

    ok, value, traffic = _rank_main(world, rank, program, fn_args, fn_kwargs)
    if not ok:
        description, exc = value
        tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
        value = (description, "".join(tb))
    result_q.put((rank, ok, value, traffic, hop.snapshot()))


def run_process_ranks(
    cfg: SpmdConfig,
    nranks: int,
    fn: Callable[..., Any],
    fn_args: tuple[Any, ...],
    fn_kwargs: dict[str, Any],
    timeout: float,
) -> tuple[World, dict[int, RankReport], dict[int, int], list[int]]:
    """Run ``fn(comm, ...)`` on ``nranks`` forked processes over one :class:`World`.

    Returns what :func:`~repro.parallel.communicator.run_spmd` assembles:
    the world, the rank reports (a failed rank's exception is a
    :class:`RemoteRankError` with its traceback), the ranks that died
    without reporting (with exit codes) and the ranks still running
    when ``4 × timeout`` passed without a report.
    """
    group = ProcessGroup("spmd-rank", nranks)
    codec = _ShmCodec(group.ctx, nranks, cfg.shm_threshold)
    world = World(
        nranks,
        timeout,
        inboxes=[group.queue() for _ in range(nranks)],
        barrier=group.ctx.Barrier(nranks),
        abort=group.abort_event,
        failed=group.ctx.Value("l", -1),
        codec=codec,
    )
    # the abort event stops ranks at their next poll step; breaking the
    # barrier releases the ones already parked in it
    group.abort_hooks.append(world.barrier.abort)
    hop = MemberContext.capture()
    reports: dict[int, RankReport] = {}
    snapshots: dict[int, dict[str, Any] | None] = {}

    def absorb(msg: tuple[Any, ...]) -> int:
        # decode at receipt time, while the result's segments are still
        # guaranteed un-reaped
        rank, ok, value, traffic, snapshot = msg
        snapshots[rank] = snapshot
        if ok:
            value = codec.decode(value)
        else:  # the rank aborted the world before it reported
            value = (value[0], RemoteRankError(rank, value[1]))
        reports[rank] = (ok, value, traffic)
        return int(rank)

    try:
        group.start(
            _process_rank_main,
            lambda r: (world, r, fn, fn_args, fn_kwargs, hop, group.results),
        )
        dead, stuck = group.drain(range(nranks), absorb, timeout * 4)
    finally:
        group.stop()
        reaped = codec.reap()
        if reaped:
            get_recorder().event("spmd.segments_reaped", level="warning", segments=reaped)
        group.close()
    # fold rank telemetry into the parent trace in rank order before
    # run_spmd raises anything, so failed runs are still observable
    hop.fold(snapshots, "spmd-rank")
    return world, reports, dead, stuck
