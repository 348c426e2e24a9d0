"""In-process SPMD communicator — the repo's MPI stand-in.

The paper's algorithms run across MPI ranks on Titan.  mpi4py (and a real
MPI) is unavailable in this environment, so this module provides an
in-process communicator with mpi4py-compatible semantics: point-to-point
``send``/``recv`` with tags, and the collectives used by the analysis code
(``barrier``, ``bcast``, ``scatter``, ``gather``, ``allgather``,
``allreduce``, ``alltoall``, ``reduce``).

An SPMD program is a function ``fn(comm, *args)``; :func:`run_spmd`
executes it over a pluggable *transport* (``transport="thread"`` or
``"process"``).  Both transports run their ranks over one
:class:`World` — mailbox matching, the bounded wait, abort, the
first-failure record, barrier errors and traffic counts live here once —
and differ only in the primitives they hand it: per-rank inboxes, a
barrier, an abort event, a first-failure record and a payload codec.
The thread transport (one OS thread per rank, in-process queues, a
codec that copies arrays) is the deterministic reference; the process
transport (:mod:`repro.parallel.transport`: forked ranks,
multiprocessing queues, big arrays through shared memory) gives real
multi-core parallelism.  Rank programs produce bit-for-bit the same
results on either.

Send buffers: ``send`` fixes its payload before it returns (copied by
the thread codec, pickled by the process codec), so a sender may reuse
or overwrite its arrays at once — ranks never share mutable state
through the transport, mirroring distributed-memory semantics.
"""

from __future__ import annotations

import contextlib
import hashlib
import queue
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .transport import SpmdConfig

__all__ = [
    "CollectiveProtocolError",
    "Communicator",
    "SpmdError",
    "World",
    "run_spmd",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: Default seconds a blocking recv/collective waits before declaring deadlock.
DEFAULT_TIMEOUT = 120.0

#: Seconds between abort checks while a recv waits.
POLL_STEP = 0.2

#: What a finished rank reports: ``(ok, result or (description, exception),
#: (messages, bytes) sent)``.
RankReport = tuple[bool, Any, tuple[int, int]]


class SpmdError(RuntimeError):
    """Raised when an SPMD program deadlocks or a rank raises."""


class CollectiveProtocolError(SpmdError):
    """The collective-sequence sanitizer found ranks out of protocol.

    Raised on *every* rank when, at a barrier, the hashed ordered
    collective-op/dtype/shape sequences disagree across ranks; the
    message names the diverging rank(s).  Only armed under
    ``REPRO_SANITIZE=1`` (the collective-protocol sanitizer, :class:`_ProtocolRecorder`).
    """


def _isolate(obj: Any) -> Any:
    """Copy mutable payloads so ranks do not share memory through messages."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_isolate(x) for x in obj)
    if isinstance(obj, list):
        return [_isolate(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _isolate(v) for k, v in obj.items()}
    return obj


class _CopyCodec:
    """Thread-transport payload codec: arrays are copied at send."""

    @staticmethod
    def encode(obj: Any, rank: int) -> Any:
        return _isolate(obj)

    @staticmethod
    def decode(wire: Any) -> Any:
        return wire


class _FirstFailure:
    """Thread-transport first-failure record, shaped like ``mp.Value("l", -1)``."""

    def __init__(self) -> None:
        self.value = -1
        self._lock = threading.Lock()

    def get_lock(self) -> threading.Lock:
        return self._lock


class World:
    """One SPMD execution's rank world, over its transport's primitives.

    The :class:`Communicator` is written against this class only:
    ``deliver`` / ``poll`` / ``barrier_wait`` / ``aborted`` / ``fail`` /
    ``record``.  Built with no primitives it is the thread world
    (in-process queues, ``threading`` barrier and event, the copying
    codec); the process transport hands it multiprocessing ones and its
    shared-memory codec, builds it before the fork and every rank runs
    on its inherited copy.  ``traffic[rank]`` is the ``(messages,
    bytes)`` that rank sent, written by that rank only; ``run_spmd``
    fills it from the rank reports, so the sums below are the same on
    both transports.
    """

    def __init__(
        self,
        size: int,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        inboxes: Sequence[Any] | None = None,
        barrier: Any = None,
        abort: Any = None,
        failed: Any = None,
        codec: Any = None,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.timeout = timeout
        self.inboxes: list[Any] = (
            list(inboxes) if inboxes is not None else [queue.SimpleQueue() for _ in range(size)]
        )
        self.barrier = barrier if barrier is not None else threading.Barrier(size)
        self.abort = abort if abort is not None else threading.Event()
        self.failed = failed if failed is not None else _FirstFailure()
        self.codec = codec if codec is not None else _CopyCodec()
        self.traffic: list[tuple[int, int]] = [(0, 0)] * size
        self._pending: list[list[tuple[int, int, Any]]] = [[] for _ in range(size)]

    @property
    def messages_sent(self) -> int:
        return sum(m for m, _ in self.traffic)

    @property
    def bytes_sent(self) -> int:
        return sum(b for _, b in self.traffic)

    def record(self, rank: int, payload: Any) -> None:
        """Count one message of ``payload``'s logical bytes against ``rank``."""
        messages, nbytes = self.traffic[rank]
        self.traffic[rank] = (messages + 1, nbytes + _payload_bytes(payload))

    def aborted(self) -> str | None:
        """Abort reason if the world is dead, else ``None``."""
        if not self.abort.is_set():
            return None
        rank = int(self.failed.value)
        return f"world aborted: rank {rank} failed" if rank >= 0 else "world aborted"

    def fail(self, rank: int = -1) -> None:
        """Abort the world; ``rank`` is recorded if it is the first to fail."""
        with self.failed.get_lock():
            if self.failed.value < 0:
                self.failed.value = rank
        self.abort.set()
        with contextlib.suppress(OSError, ValueError):  # barrier torn down
            self.barrier.abort()

    def deliver(self, dest: int, source: int, tag: int, obj: Any) -> None:
        """Fix ``obj`` through the codec and enqueue it for ``dest``."""
        self.record(source, obj)
        self.inboxes[dest].put((source, tag, self.codec.encode(obj, source)))

    def poll(self, rank: int, source: int, tag: int) -> Any:
        """Take ``rank``'s first message matching ``(source, tag)``.

        Waits up to the world timeout, checking for abort every
        :data:`POLL_STEP`; non-matching messages are kept, in arrival
        order, for later polls.
        """

        def matches(src: int, tg: int) -> bool:
            return source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg)

        pending = self._pending[rank]
        waited = 0.0  # counted in empty poll steps: no clock is read
        while True:
            reason = self.aborted()
            if reason is not None:
                raise SpmdError(reason)
            for i, (src, tg, _) in enumerate(pending):
                if matches(src, tg):
                    return pending.pop(i)[2]
            if waited >= self.timeout:
                raise SpmdError(
                    f"recv(source={source}, tag={tag}) timed out after {self.timeout}s "
                    "— likely SPMD deadlock"
                )
            step = min(POLL_STEP, self.timeout - waited)
            try:
                src, tg, wire = self.inboxes[rank].get(timeout=step)
            except queue.Empty:
                waited += step
                continue
            pending.append((src, tg, self.codec.decode(wire)))

    def barrier_wait(self) -> None:
        """Enter the world barrier; name the first failed rank if it breaks."""
        try:
            self.barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            rank = int(self.failed.value)
            why = (
                f"rank {rank} failed"
                if rank >= 0
                else f"a rank died or did not arrive within {self.timeout}s"
            )
            raise SpmdError(f"barrier broken: {why}") from None


def _shape_sig(obj: Any, depth: int = 0) -> str:
    """Rank-invariant type/dtype/shape signature of a collective payload.

    Only structure is hashed, never values, so per-rank *data* may differ
    (scatter parts, reduce contributions) while protocol divergence —
    a different op order, dtype, or shape — still changes the digest.
    """
    if isinstance(obj, np.ndarray):
        return f"nd[{obj.dtype.str},{obj.shape}]"
    if isinstance(obj, (list, tuple)):
        if depth >= 2 or not obj:
            return f"seq[{len(obj)}]"
        return f"seq[{len(obj)},{_shape_sig(obj[0], depth + 1)}]"
    if isinstance(obj, dict):
        return f"map[{len(obj)}]"
    return type(obj).__name__


class _ProtocolRecorder:
    """Running hash of one rank's ordered collective-op signatures."""

    __slots__ = ("_hash", "count", "recent")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0
        self.recent: deque[str] = deque(maxlen=6)

    def record(self, *sig: object) -> None:
        text = "|".join(str(part) for part in sig)
        self._hash.update(text.encode())
        self._hash.update(b"\n")
        self.count += 1
        self.recent.append(text)

    def digest(self) -> str:
        return self._hash.hexdigest()


def _protocol_verdict(
    reports: dict[int, tuple[str, int, tuple[str, ...]]],
) -> str:
    """Compare per-rank (digest, count, recent-ops); "" when consistent.

    The majority (ties broken toward the group containing the lowest
    rank) defines the reference protocol; everyone else is named as
    diverging, with op counts and last-op tails for diagnosis.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for rank, (digest, count, _recent) in reports.items():
        groups.setdefault((digest, count), []).append(rank)
    if len(groups) <= 1:
        return ""
    modal_key = max(groups, key=lambda k: (len(groups[k]), -min(groups[k])))
    modal_ranks = sorted(groups[modal_key])
    divergers = sorted(r for r in reports if r not in groups[modal_key])
    parts = []
    for rank in divergers:
        digest, count, recent = reports[rank]
        tail = " <- ".join(reversed(recent)) or "(none)"
        parts.append(f"rank {rank}: {count} op(s), last: {tail}")
    _, modal_count, modal_recent = reports[modal_ranks[0]]
    modal_tail = " <- ".join(reversed(modal_recent)) or "(none)"
    return (
        "collective protocol divergence at barrier: "
        f"rank(s) {', '.join(map(str, divergers))} diverge from the majority "
        f"(ranks {', '.join(map(str, modal_ranks))}: {modal_count} op(s), "
        f"last: {modal_tail}); {'; '.join(parts)}"
    )


def _payload_bytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    return 8  # nominal scalar size


class Communicator:
    """Rank-local handle to a :class:`World` (mpi4py-flavoured API)."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        # Collective-protocol sanitizer (_ProtocolRecorder): armed only
        # under REPRO_SANITIZE=1, so the hot path costs one env lookup at
        # construction.  Forked process ranks inherit the environment, so
        # the same switch arms both transports.
        from ..check.sanitize import sanitize_enabled

        self._protocol: _ProtocolRecorder | None = (
            _ProtocolRecorder() if sanitize_enabled() else None
        )

    # -- point to point -------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest`` (non-blocking buffered send)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        reason = self.world.aborted()
        if reason is not None:
            raise SpmdError(reason)
        self.world.deliver(dest, self.rank, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive a message matching ``(source, tag)``; blocks until available."""
        return self.world.poll(self.rank, source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Combined send+recv (safe against pairwise exchange deadlock)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- collectives ----------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank has entered the barrier.

        If the barrier breaks, the raised :class:`SpmdError` names the
        rank that died or timed out and (thread transport) chains the
        originating exception.  With ``REPRO_SANITIZE=1`` the barrier is
        also the protocol checkpoint: ranks cross-check their hashed
        collective sequences here and fail fast, naming the diverging
        rank, instead of deadlocking later.
        """
        if self._protocol is not None:
            self._protocol.record("barrier")
            self._check_protocol()
        self.world.barrier_wait()

    def _check_protocol(self) -> None:
        """Cross-check per-rank collective-sequence digests (rank 0 judges)."""
        proto = self._protocol
        if proto is None or self.size == 1:
            return
        tag = _SysTag.SANITIZE
        if self.rank != 0:
            self.send((self.rank, proto.digest(), proto.count, tuple(proto.recent)), 0, tag)
            verdict = self.recv(0, tag)
            if verdict:
                raise CollectiveProtocolError(verdict)
            return
        reports: dict[int, tuple[str, int, tuple[str, ...]]] = {
            0: (proto.digest(), proto.count, tuple(proto.recent))
        }
        for _ in range(self.size - 1):
            rank, digest, count, recent = self.recv(ANY_SOURCE, tag)
            reports[rank] = (digest, count, tuple(recent))
        verdict = _protocol_verdict(reports)
        for dst in range(1, self.size):
            self.send(verdict, dst, tag)
        if verdict:
            raise CollectiveProtocolError(verdict)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to all ranks."""
        tag = _SysTag.BCAST
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(obj, dst, tag)
            out = _isolate(obj)
        else:
            out = self.recv(root, tag)
        if self._protocol is not None:
            # the broadcast value is identical on every rank, so its
            # structural signature is rank-invariant by construction
            self._protocol.record("bcast", root, _shape_sig(out))
        return out

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one element of ``objs`` to each rank."""
        tag = _SysTag.SCATTER
        if self._protocol is not None:
            self._protocol.record("scatter", root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter requires len(objs) == comm.size at root")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag)
            return _isolate(objs[root])
        return self.recv(root, tag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank at ``root`` (rank order)."""
        tag = _SysTag.GATHER
        if self._protocol is not None:
            self._protocol.record("gather", root)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = _isolate(obj)
            for _ in range(self.size - 1):
                # tag match is on (src, tag); order recovery via src
                src_obj = self._recv_with_source(tag)
                out[src_obj[0]] = src_obj[1]
            return out
        self.send((self.rank, _isolate(obj)), root, tag)
        return None

    def _recv_with_source(self, tag: int) -> tuple[int, Any]:
        payload = self.recv(ANY_SOURCE, tag)
        return payload  # payload is (src_rank, obj)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather at rank 0 then broadcast the full list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = np.add, root: int = 0) -> Any:
        """Reduce across ranks with binary ``op``; result valid at ``root``."""
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        acc = gathered[0]
        for x in gathered[1:]:
            acc = op(acc, x)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = np.add) -> Any:
        """Reduce across ranks and broadcast the result."""
        reduced = self.reduce(obj, op=op, root=0)
        return self.bcast(reduced, root=0)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: ``objs[d]`` goes to rank ``d``.

        Returns the list of objects received, indexed by source rank.
        """
        if len(objs) != self.size:
            raise ValueError("alltoall requires len(objs) == comm.size")
        tag = _SysTag.ALLTOALL
        if self._protocol is not None:
            self._protocol.record("alltoall", self.size)
        for dst in range(self.size):
            if dst != self.rank:
                self.send((self.rank, objs[dst]), dst, tag)
        out: list[Any] = [None] * self.size
        out[self.rank] = _isolate(objs[self.rank])
        for _ in range(self.size - 1):
            src, obj = self.recv(ANY_SOURCE, tag)
            out[src] = obj
        return out


class _SysTag:
    """Reserved tags for collectives (kept clear of user tags >= 0)."""

    BCAST = -101
    SCATTER = -102
    GATHER = -103
    ALLTOALL = -104
    SANITIZE = -105  # collective-sequence sanitizer cross-check


def _rank_main(
    world: World, rank: int, fn: Callable[..., Any], args: tuple[Any, ...], kwargs: dict[str, Any]
) -> RankReport:
    """Run one rank of either transport; a rank that raises aborts the world."""
    try:
        ok, value = True, fn(Communicator(world, rank), *args, **kwargs)
    except BaseException as exc:  # repro: noqa[RPR006] - reported to
        # run_spmd, which re-raises it as SpmdError after the world aborts
        world.fail(rank)
        ok, value = False, (f"{type(exc).__name__}: {exc}", exc)
    return ok, value, world.traffic[rank]


def _run_thread_ranks(
    world: World, fn: Callable[..., Any], args: tuple[Any, ...], kwargs: dict[str, Any]
) -> tuple[dict[int, RankReport], list[int]]:
    """One thread per rank (one rank runs inline); ``(reports, stuck)``."""
    reports: dict[int, RankReport] = {}

    def runner(rank: int) -> None:
        reports[rank] = _rank_main(world, rank, fn, args, kwargs)

    if world.size == 1:
        # no threads, a direct call (useful under profilers)
        runner(0)
        return reports, []
    threads = [
        threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(world.size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(world.timeout * 4)
    stuck = [r for r, t in enumerate(threads) if t.is_alive()]
    if stuck:
        world.fail()
    return reports, stuck


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    return_world: bool = False,
    transport: "str | SpmdConfig | None" = None,
    **kwargs: Any,
) -> list[Any] | tuple[list[Any], World]:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nranks`` concurrent ranks.

    Returns the list of per-rank return values (rank order).  If any rank
    raises, the world is aborted and the first rank to fail is re-raised
    as :class:`SpmdError`, chaining its exception (thread ranks) or a
    :class:`~repro.parallel.transport.RemoteRankError` with its traceback
    (process ranks).  With ``return_world=True`` the :class:`World`
    (carrying ``messages_sent`` / ``bytes_sent``) is also returned.

    ``transport`` selects the rank substrate: ``"thread"`` (default; the
    deterministic in-process reference), ``"process"`` (one forked OS
    process per rank — real parallelism), or a full
    :class:`~repro.parallel.transport.SpmdConfig`.  ``None`` consults the
    ``REPRO_SPMD_TRANSPORT`` environment variable.  ``nranks == 1``
    always runs inline on the calling thread regardless of transport
    (useful under profilers; also what the cost model assumes).
    """
    from .transport import resolve_transport, run_process_ranks

    cfg = resolve_transport(transport)
    if cfg.timeout is not None:
        timeout = cfg.timeout
    dead: dict[int, int] = {}
    if nranks > 1 and cfg.transport == "process":
        world, reports, dead, stuck = run_process_ranks(cfg, nranks, fn, args, kwargs, timeout)
    else:
        world = World(nranks, timeout=timeout)
        reports, stuck = _run_thread_ranks(world, fn, args, kwargs)

    for rank, (_, _, traffic) in reports.items():
        world.traffic[rank] = traffic
    if dead:
        # a rank that died without reporting (hard crash) is always the
        # root cause — any recorded errors are its peers' broken waits
        rank, code = min(dead.items())
        raise SpmdError(f"rank {rank} died with exit code {code} before returning a result")
    errors = {r: value for r, (ok, value, _) in reports.items() if not ok}
    if errors:
        # the first rank to fail is the root cause; its abort broke its peers
        first = int(world.failed.value)
        rank = first if first in errors else min(errors)
        description, cause = errors[rank]
        raise SpmdError(f"rank {rank} raised {description}") from cause
    if stuck:
        raise SpmdError(
            f"SPMD ranks {stuck} failed to finish within {timeout * 4}s — likely deadlock"
        )
    results = [reports[r][1] for r in range(nranks)]
    if return_world:
        return results, world
    return results
