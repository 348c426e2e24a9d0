"""Module-local call-graph summaries for the concurrency rules.

The flow-sensitive rules (:mod:`repro.check.concurrency`) reason about
one function at a time, but collectives and blocking calls routinely
hide one call deep — ``def exchange(comm): comm.alltoall(...)`` called
from the rank program.  This pass computes one :class:`FunctionSummary`
per function in a module (direct effects + local callees) and expands
them to a fixpoint, so a rule asking "does this call participate in a
collective?" sees through module-local helpers.

Resolution is deliberately shallow: a call resolves to a summary only
for bare names (``helper()``) and ``self.``/``cls.`` methods of the
enclosing class.  Cross-module calls stay unknown — their effects are
simply not attributed, which under-approximates (fewer findings) and
never invents paths that do not exist.

This module also owns the *effect vocabulary* — what counts as a
collective, a blocking call, a thread start, a fork — shared by the
static rules and documented in docs/static-analysis.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .analyzer import ModuleContext, dotted_chain

__all__ = [
    "FunctionSummary",
    "ModuleCallGraph",
    "blocking_call_name",
    "call_is_bounded",
    "collective_of",
    "forks_process",
    "starts_threads",
]

#: Method names that are always collectives, whatever the receiver: these
#: names only appear on communicator-like objects in this codebase.
_ALWAYS_COLLECTIVE = frozenset(
    {"barrier", "barrier_wait", "bcast", "allgather", "allreduce", "alltoall", "alltoallv"}
)

#: Method names that are collectives only on a communicator-looking
#: receiver (``comm.gather`` yes, ``arr.gather`` — an array op — no).
_COMM_ONLY_COLLECTIVE = frozenset({"gather", "scatter", "reduce"})

#: Receiver-name fragments that mark a communicator handle.
_COMM_HINTS = ("comm", "world", "communicator")

#: Method names that block the calling thread until a peer acts.
_BLOCKING_NAMES = frozenset(
    {"get", "recv", "join", "barrier", "barrier_wait", "wait", "wait_for", "acquire"}
)

#: Callable tails that put a new thread to work.
_THREAD_STARTERS = (
    ("threading", "Thread"),
    ("Thread",),
    ("ThreadPoolExecutor",),
    ("AsyncInSituManager",),
    ("TaskListener",),
)

#: Callable tails that fork / spawn an OS process.
_FORK_TAILS = (
    ("Process",),
    ("WorkerPool",),
    ("run_process_spmd",),
    ("Pool",),
)


def _receiver_is_comm(chain: tuple[str, ...]) -> bool:
    receiver = chain[:-1]
    if not receiver:
        return False
    return any(hint in part.lower() for part in receiver for hint in _COMM_HINTS)


def collective_of(call: ast.Call) -> str | None:
    """The collective-op name of ``call``, or ``None``.

    ``comm.gather(x)`` -> ``"gather"``; ``arr.gather(x)`` -> ``None``
    (array op, not a rendezvous); ``anything.barrier()`` -> ``"barrier"``.
    """
    chain = dotted_chain(call.func)
    if len(chain) < 2:
        return None
    name = chain[-1]
    if name in _ALWAYS_COLLECTIVE:
        return name
    if name in _COMM_ONLY_COLLECTIVE and _receiver_is_comm(chain):
        return name
    return None


def call_is_bounded(call: ast.Call) -> bool:
    """True when a blocking call carries an explicit bound.

    ``q.get(timeout=1)``, ``q.get(True, 1)``, ``q.get(False)`` and
    ``t.join(2.0)`` are bounded; bare ``q.get()`` / ``t.join()`` are not.
    """
    for kw in call.keywords:
        if kw.arg == "timeout" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return True
    chain = dotted_chain(call.func)
    name = chain[-1] if chain else ""
    if name == "get":
        if len(call.args) >= 2:
            return True
        if call.args and isinstance(call.args[0], ast.Constant) and call.args[0].value is False:
            return True  # non-blocking get
    elif name in ("join", "wait", "wait_for", "barrier_wait"):
        if call.args:  # positional timeout
            return True
    elif name == "acquire":
        for arg in call.args:
            if isinstance(arg, ast.Constant) and arg.value is False:
                return True
        for kw in call.keywords:
            if (
                kw.arg == "blocking"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return True
    return False


def _is_mapping_get(call: ast.Call) -> bool:
    """``d.get(key)`` / ``d.get(key, default)`` — a lookup, not a receive.

    Queue-style gets take no positional args or a boolean ``block`` flag;
    any other first positional marks a mapping lookup.
    """
    if not call.args:
        return False
    first = call.args[0]
    return not (isinstance(first, ast.Constant) and isinstance(first.value, bool))


def blocking_call_name(call: ast.Call) -> str | None:
    """Dotted name of an *unbounded* blocking call, or ``None``."""
    chain = dotted_chain(call.func)
    if not chain:
        return None
    name = chain[-1]
    if name.endswith("_nowait"):
        return None
    if name not in _BLOCKING_NAMES:
        return None
    if name == "get" and _is_mapping_get(call):
        return None
    if call_is_bounded(call):
        return None
    return ".".join(chain)


def _chain_matches(chain: tuple[str, ...], tails: tuple[tuple[str, ...], ...]) -> bool:
    return any(chain[-len(t) :] == t for t in tails if len(chain) >= len(t))


def starts_threads(call: ast.Call, ctx: ModuleContext) -> bool:
    """``call`` puts background threads to work (Thread/pool/pipeline)."""
    chain = dotted_chain(call.func)
    if chain and _chain_matches(chain, _THREAD_STARTERS):
        return True
    resolved = ctx.resolve_call(call)
    return resolved in (
        "threading.Thread",
        "concurrent.futures.ThreadPoolExecutor",
    )


def forks_process(call: ast.Call, ctx: ModuleContext) -> bool:
    """``call`` forks or spawns an OS process."""
    chain = dotted_chain(call.func)
    if chain and _chain_matches(chain, _FORK_TAILS):
        return True
    resolved = ctx.resolve_call(call)
    return resolved in ("os.fork", "multiprocessing.Process", "pty.fork")


# -- summaries ----------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Direct (unexpanded) effects of one function."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    collectives: tuple[str, ...] = ()  # ordered collective ops, own body only
    blocking: bool = False
    thread_start: bool = False
    fork: bool = False
    calls: tuple[str, ...] = ()  # resolvable module-local callees, in order
    call_order: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    # ``call_order`` interleaves ("op", name) / ("call", qualname) events in
    # source order so collective sequences expand in the right position.


class ModuleCallGraph:
    """Per-module function summaries with fixpoint expansion."""

    #: expansion guards: recursion depth and expanded-sequence length
    MAX_DEPTH = 8
    MAX_OPS = 32

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.summaries: dict[str, FunctionSummary] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._qualname(node)
                self.summaries[qualname] = self._summarize(qualname, node)
        self._expanded: dict[str, tuple[str, ...]] = {}

    def _qualname(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
        for anc in self.ctx.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return f"{anc.name}.{node.name}"
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return f"{self._qualname(anc)}.{node.name}"
        return node.name

    def _own_calls(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[ast.Call]:
        """Calls in ``node``'s body, skipping nested definitions."""
        stack: list[ast.AST] = list(node.body)
        while stack:
            n = stack.pop(0)
            if isinstance(n, _OPAQUE_DEFS):
                continue
            if isinstance(n, ast.Call):
                yield n
            stack[:0] = list(ast.iter_child_nodes(n))

    def resolve_local(self, call: ast.Call, node: ast.AST) -> str | None:
        """Qualname of a module-local callee, or ``None`` for unknown."""
        chain = dotted_chain(call.func)
        if not chain:
            return None
        if len(chain) == 1:
            return chain[0] if chain[0] in self.summaries else None
        if len(chain) == 2 and chain[0] in ("self", "cls"):
            for anc in self.ctx.ancestors(node):
                if isinstance(anc, ast.ClassDef):
                    qual = f"{anc.name}.{chain[1]}"
                    return qual if qual in self.summaries else None
        return None

    def _summarize(
        self, qualname: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> FunctionSummary:
        collectives: list[str] = []
        order: list[tuple[str, str]] = []
        calls: list[str] = []
        blocking = thread_start = fork = False
        for call in self._own_calls(node):
            op = collective_of(call)
            if op is not None:
                collectives.append(op)
                order.append(("op", op))
                continue
            if blocking_call_name(call) is not None:
                blocking = True
            if starts_threads(call, self.ctx):
                thread_start = True
            if forks_process(call, self.ctx):
                fork = True
            callee = self.resolve_local(call, node)
            if callee is not None and callee != qualname:
                calls.append(callee)
                order.append(("call", callee))
        return FunctionSummary(
            qualname=qualname,
            node=node,
            collectives=tuple(collectives),
            blocking=blocking,
            thread_start=thread_start,
            fork=fork,
            calls=tuple(calls),
            call_order=tuple(order),
        )

    # -- expansion -------------------------------------------------------

    def expanded_collectives(self, qualname: str) -> tuple[str, ...]:
        """Ordered collective ops of ``qualname`` including local callees."""
        cached = self._expanded.get(qualname)
        if cached is not None:
            return cached
        out = self._expand(qualname, frozenset(), 0)
        self._expanded[qualname] = out
        return out

    def _expand(self, qualname: str, seen: frozenset[str], depth: int) -> tuple[str, ...]:
        summary = self.summaries.get(qualname)
        if summary is None or qualname in seen or depth > self.MAX_DEPTH:
            return ()
        ops: list[str] = []
        for kind, name in summary.call_order:
            if kind == "op":
                ops.append(name)
            else:
                ops.extend(self._expand(name, seen | {qualname}, depth + 1))
            if len(ops) >= self.MAX_OPS:
                break
        return tuple(ops[: self.MAX_OPS])

    def transitively(self, qualname: str, effect: str) -> bool:
        """Closure over local calls of a boolean effect flag.

        ``effect`` is one of ``"blocking"``, ``"thread_start"``, ``"fork"``.
        """
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            summary = self.summaries.get(name)
            if summary is None:
                continue
            if getattr(summary, effect):
                return True
            stack.extend(summary.calls)
        return False

    def call_collectives(self, call: ast.Call, node: ast.AST) -> tuple[str, ...]:
        """Collective sequence a call contributes (direct op or expansion)."""
        op = collective_of(call)
        if op is not None:
            return (op,)
        callee = self.resolve_local(call, node)
        if callee is not None:
            return self.expanded_collectives(callee)
        return ()


_OPAQUE_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
