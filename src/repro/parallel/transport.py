"""Pluggable SPMD transports: thread reference vs. process-backed ranks.

:mod:`repro.parallel.communicator` defines the mpi4py-flavoured
:class:`~repro.parallel.communicator.Communicator` against a narrow
*world* interface (``deliver`` / ``poll`` / ``barrier_wait`` /
``aborted``).  This module provides the second implementation of that
interface: a **process transport** that runs one OS process per rank, so
rank programs execute with real parallelism instead of GIL time-slicing.

The thread transport (:class:`~repro.parallel.communicator.World`)
remains the deterministic reference — both transports move *logically
identical* message payloads, so a rank program produces bit-for-bit the
same results on either (property-tested in
``tests/test_parallel_transport.py``).

Transport of bulk data rides the ``repro.exec`` shared-memory substrate:
any NumPy array at or above ``SpmdConfig.shm_threshold`` bytes is placed
in a :class:`~repro.exec.sharedmem.SharedParticleStore` segment and only
the tiny picklable spec crosses the queue — the receiving rank adopts
the segments, materialises the arrays, and frees them.  Senders register
every segment name on a cleanup queue so the parent can reap anything a
crashed receiver never adopted (no leaked segments on any failure path).

The ranks are forked, watched, aborted and reaped by one
:class:`~repro.exec.supervisor.ProcessGroup` (lane ``spmd-rank``), which
also carries the fault plan and ``TraceContext`` in and the rank-local
telemetry back into the parent trace.  Forking lets rank programs be
closures over parent arrays exactly like the thread transport.  This
module keeps what is SPMD: inboxes, barrier, ``failed_rank``, reaper.
"""

from __future__ import annotations

import os
import queue
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..exec.sharedmem import SharedParticleStore, _attach_segment
from ..exec.supervisor import MemberContext, ProcessGroup
from ..obs import get_recorder

__all__ = ["ProcessWorld", "SpmdConfig", "resolve_transport"]

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


class ProcessWorld:
    """Parent-side summary of one process-transport execution.

    Mirrors the statistics surface of the thread
    :class:`~repro.parallel.communicator.World` (``messages_sent`` /
    ``bytes_sent``, summed over all ranks) for ``return_world=True``
    callers; it carries no live transport state.
    """

    def __init__(self, size: int, timeout: float) -> None:
        self.size = size
        self.timeout = timeout
        self.messages_sent = 0
        self.bytes_sent = 0


# -- payload codec -------------------------------------------------------------
#
# Messages are pickled by the mp.Queue *except* bulk arrays: those are
# copied once into shared-memory segments by the sender and adopted
# (attach + unlink) by the receiver.  Only the segment spec rides the
# queue, so serialisation cost is O(structure), not O(data).


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


def _encode_payload(obj: Any, threshold: int, cleanup_q: Any) -> tuple[Any, ...]:
    """Encode ``obj`` for a queue hop, hoisting big arrays into shm."""
    arrays: dict[str, np.ndarray] = {}

    def hoist(x: Any) -> Any:
        if isinstance(x, np.ndarray) and not x.dtype.hasobject and x.nbytes >= threshold:
            key = f"a{len(arrays)}"
            arrays[key] = x
            return _ShmSlot(key)
        return x

    template = _map_leaves(obj, hoist)
    if not arrays:
        return ("pickle", obj)
    store = SharedParticleStore.create(**arrays)
    try:
        spec = store.spec
        # register segment names with the parent reaper *before* the
        # message is visible to the receiver: if the receiver dies first,
        # the parent still knows what to unlink
        cleanup_q.put(sorted(name for name, _, _ in spec.values()))
    finally:
        # ownership transfers to the receiver (or the parent reaper):
        # drop this process's mapping without freeing the segments
        store.release()
    return ("shm", template, spec)


def _decode_payload(msg: tuple[Any, ...]) -> Any:
    """Reverse :func:`_encode_payload`; adopts and frees shm segments."""
    if msg[0] == "pickle":
        return msg[1]
    _, template, spec = msg
    store = SharedParticleStore.attach(spec, adopt=True)
    try:
        arrays = {key: np.array(store.array(key), copy=True) for key in store.fields}
    finally:
        store.unlink()
    return _map_leaves(template, lambda x: arrays[x.key] if isinstance(x, _ShmSlot) else x)


def _reap_segments(cleanup_q: Any) -> int:
    """Unlink any registered segments the receivers never adopted."""
    names: set[str] = set()
    while True:
        try:
            names.update(cleanup_q.get_nowait())
        except queue.Empty:
            break
    reaped = 0
    for name in sorted(names):
        try:
            seg = _attach_segment(name)
        except FileNotFoundError:
            continue  # adopted and freed by its receiver — the common case
        try:
            seg.unlink()
            reaped += 1
        finally:
            seg.close()
    return reaped


# -- rank side -----------------------------------------------------------------


class _ProcessRankWorld:
    """Rank-local world over fork-inherited queues (one per rank).

    Built by the parent for each rank just before the fork.  Implements
    the narrow transport interface the
    :class:`~repro.parallel.communicator.Communicator` consumes:
    ``deliver`` / ``poll`` / ``barrier_wait`` / ``aborted`` / ``record``.
    Statistics are counted locally and shipped back with the rank result;
    the parent sums them into the :class:`ProcessWorld`.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: list[Any],
        cleanup_q: Any,
        barrier: Any,
        abort: Any,
        failed_rank: Any,
        timeout: float,
        shm_threshold: int,
    ) -> None:
        self.rank = rank
        self.size = size
        self.timeout = timeout
        self._inboxes = inboxes
        self._cleanup_q = cleanup_q
        self._barrier = barrier
        self._abort = abort
        self._failed_rank = failed_rank
        self._shm_threshold = shm_threshold
        self._pending: list[tuple[int, int, Any]] = []
        self.messages_sent = 0
        self.bytes_sent = 0

    # Communicator-facing interface -------------------------------------

    def aborted(self) -> str | None:
        if not self._abort.is_set():
            return None
        rank = int(self._failed_rank.value)
        if rank >= 0:
            return f"world aborted (rank {rank} failed)"
        return "world aborted"

    def record(self, payload: Any) -> None:
        from .communicator import _payload_bytes

        self.messages_sent += 1
        self.bytes_sent += _payload_bytes(payload)

    def deliver(self, dest: int, source: int, tag: int, obj: Any) -> None:
        # logical (pre-encoding) bytes, matching the thread transport
        self.record(obj)
        enc = _encode_payload(obj, self._shm_threshold, self._cleanup_q)
        self._inboxes[dest].put((source, tag, enc))

    def poll(self, rank: int, source: int, tag: int, step: float) -> Any:
        from .communicator import ANY_SOURCE, ANY_TAG, SpmdError

        def matches(src: int, tg: int) -> bool:
            return (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, tg))

        for i, (src, tg, payload) in enumerate(self._pending):
            if matches(src, tg):
                return self._pending.pop(i)[2]
        while True:
            try:
                src, tg, enc = self._inboxes[rank].get(timeout=step)
            except queue.Empty:
                raise SpmdError(
                    f"recv(source={source}, tag={tag}) timed out after {step}s "
                    "— likely SPMD deadlock"
                ) from None
            payload = _decode_payload(enc)
            if matches(src, tg):
                return payload
            self._pending.append((src, tg, payload))

    def barrier_wait(self) -> None:
        import threading

        from .communicator import SpmdError

        try:
            self._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            rank = int(self._failed_rank.value)
            if rank >= 0:
                raise SpmdError(
                    f"barrier broken: rank {rank} died or raised "
                    "(see the SpmdError chained from run_spmd)"
                ) from None
            raise SpmdError(
                f"barrier broken (a rank died or timed out after {self.timeout}s)"
            ) from None

    # rank failure --------------------------------------------------------

    def fail(self) -> None:
        """Record this rank as the first failure (if it is) and abort the world."""
        with self._failed_rank.get_lock():
            if self._failed_rank.value < 0:
                self._failed_rank.value = self.rank
        self._abort.set()
        try:
            self._barrier.abort()
        except (OSError, ValueError):  # pragma: no cover - barrier torn down
            pass


def _process_rank_main(
    world: _ProcessRankWorld,
    fn: Callable[..., Any],
    fn_args: tuple[Any, ...],
    fn_kwargs: dict[str, Any],
    hop: MemberContext,
    result_q: Any,
) -> None:
    """Entry point of one forked SPMD rank."""
    from .communicator import Communicator

    hop.install()
    try:
        result = fn(Communicator(world, world.rank), *fn_args, **fn_kwargs)
        payload = _encode_payload(result, world._shm_threshold, world._cleanup_q)
        status = "ok"
    except BaseException as exc:  # repro: noqa[RPR006] - the traceback is
        # shipped to the parent over result_q, which re-raises it as a
        # chained SpmdError: the failure is loudly observable, never
        # swallowed.
        world.fail()
        status = "error"
        payload = (type(exc).__name__, str(exc), traceback.format_exc())
    stats = (world.messages_sent, world.bytes_sent)
    result_q.put((world.rank, status, payload, stats, hop.snapshot()))


# -- parent side ---------------------------------------------------------------


class RemoteRankError(RuntimeError):
    """Carries the formatted traceback of a failed SPMD rank process."""

    def __init__(self, rank: int, formatted_traceback: str) -> None:
        super().__init__(f"rank {rank} traceback:\n{formatted_traceback}")
        self.rank = rank
        self.formatted_traceback = formatted_traceback


def run_process_spmd(
    cfg: SpmdConfig,
    nranks: int,
    fn: Callable[..., Any],
    fn_args: tuple[Any, ...],
    fn_kwargs: dict[str, Any],
    timeout: float,
    return_world: bool,
) -> "list[Any] | tuple[list[Any], ProcessWorld]":
    """Execute ``fn(comm, ...)`` on ``nranks`` forked processes.

    Mirrors the thread path of
    :func:`~repro.parallel.communicator.run_spmd`: per-rank results in
    rank order, first rank failure re-raised as ``SpmdError`` (chaining a
    :class:`RemoteRankError` with the remote traceback), world statistics
    summed for ``return_world=True``.
    """
    from .communicator import SpmdError

    if cfg.timeout is not None:
        timeout = cfg.timeout
    group = ProcessGroup("spmd-rank", nranks)
    inboxes = [group.queue() for _ in range(nranks)]
    cleanup_q = group.queue()
    barrier = group.ctx.Barrier(nranks)
    failed_rank = group.ctx.Value("l", -1)
    # the abort flag stops ranks at their next poll; breaking the barrier
    # releases the ones already parked in it (they would otherwise sit
    # out the whole per-wait timeout)
    group.abort_hooks.append(barrier.abort)
    hop = MemberContext.capture()
    rec = get_recorder()
    got: dict[int, tuple[str, Any, tuple[int, int], dict[str, Any] | None]] = {}

    def absorb(msg: tuple[Any, ...]) -> int:
        # decode at receipt time, while the payload's segments are still
        # guaranteed un-reaped; error payloads are plain tuples
        rank, status, payload, stats, snap = msg
        if status == "ok":
            payload = _decode_payload(payload)
        else:
            group.abort()
        got[rank] = (status, payload, stats, snap)
        return int(rank)

    try:
        group.start(
            _process_rank_main,
            lambda r: (
                _ProcessRankWorld(
                    r, nranks, inboxes, cleanup_q, barrier, group.abort_event,
                    failed_rank, timeout, cfg.shm_threshold,
                ),
                fn, fn_args, fn_kwargs, hop, group.results,
            ),
        )
        dead, stuck = group.drain(range(nranks), absorb, timeout * 4)
    finally:
        group.stop()
        # everything absorbed is adopted; whatever segment names remain
        # belong to messages nobody will ever read (crashed receivers)
        reaped = _reap_segments(cleanup_q)
        if reaped:
            rec.event("spmd.segments_reaped", level="warning", segments=reaped)
        group.close()

    world = ProcessWorld(nranks, timeout)
    for r in sorted(got):
        messages, nbytes = got[r][2]
        world.messages_sent += int(messages)
        world.bytes_sent += int(nbytes)
    # fold rank telemetry into the parent trace in rank order before any
    # raise, so failed runs are still fully observable
    hop.fold({r: got[r][3] for r in got}, "spmd-rank")

    errors = {r: got[r][1] for r in sorted(got) if got[r][0] == "error"}
    if dead:
        # a rank that died without reporting (hard crash) is always the
        # root cause — any recorded errors are its peers' broken barriers
        rank, code = min(dead.items())
        raise SpmdError(
            f"rank {rank} died with exit code {code} before returning a result "
            "(process transport)"
        )
    if errors:
        # prefer the root cause: failed_rank records the *first* rank to
        # fail, whose abort then broke the barrier under its peers
        first = int(failed_rank.value)
        rank = first if first in errors else next(iter(errors))
        etype, emsg, tb = errors[rank]
        raise SpmdError(f"rank {rank} raised {etype}: {emsg}") from RemoteRankError(rank, tb)
    if stuck:
        raise SpmdError(
            f"SPMD ranks {stuck} failed to finish within {timeout * 4}s "
            "— likely deadlock"
        )

    results = [got[r][1] for r in range(nranks)]
    if return_world:
        return results, world
    return results
