"""The determinism & resource-safety rule set (RPR001-RPR010).

Every rule is grounded in an invariant this codebase actually relies
on: the work-stealing engine's bit-identical serial/parallel guarantee
(:mod:`repro.exec`), the order-stable float reductions feeding the
merged Level-3 catalog, seeded RNG everywhere a workload is drawn, and
leak-free shared-memory lifecycles.  Rules are pluggable: subclass
:class:`Rule`, decorate with :func:`register_rule`, and the analyzer,
CLI, config, and reporters pick the new code up automatically.

===========  ==================================================================
Code         Invariant enforced
===========  ==================================================================
``RPR001``   No unseeded ``np.random.default_rng()`` / legacy global RNG state.
``RPR002``   No set/dict iteration feeding numerical accumulation (order-
             dependent float sums break bit-identical reductions).
``RPR003``   No wall-clock reads inside pure analysis kernels (timing belongs
             to :mod:`repro.obs`).
``RPR004``   No float ``==`` / ``!=`` comparisons.
``RPR005``   Shared-memory segments are constructed under a context manager
             or a try/finally that releases them (no shm leaks).
``RPR006``   No broad ``except Exception`` that swallows silently — either
             re-raise or emit a telemetry event.
``RPR007``   No mutable default arguments.
``RPR008``   Spans are used in context-manager form only (no manual
             begin/end, which leaks open spans on error paths).
``RPR009``   No hand-rolled ``time.sleep`` retry loops — retrying goes
             through :class:`repro.faults.RetryPolicy` (seeded backoff,
             telemetry, fault injection).
``RPR010``   Library code must not ``print()`` — diagnostics go through
             :mod:`repro.obs` events so they reach the run journal and
             the JSONL sinks (CLI entry points are exempt).
===========  ==================================================================
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from .analyzer import ModuleContext, dotted_chain
from .findings import Finding

__all__ = ["Rule", "all_rules", "register_rule"]


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set ``code`` (``RPRxxx``), ``name``, ``summary``, and
    optionally ``default_scopes`` (repro-package-relative path fragments
    the rule is limited to; empty = everywhere), then implement
    :meth:`check` yielding :class:`Finding` objects.
    """

    code: str = "RPR000"
    name: str = "abstract"
    summary: str = ""
    default_scopes: tuple[str, ...] = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(self.code, message, node)


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its code."""
    if not (cls.code.startswith("RPR") and cls.code[3:].isdigit()):
        raise ValueError(f"rule code must look like RPRxxx, got {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    return cls


def all_rules() -> dict[str, Rule]:
    """Registered rules, keyed and ordered by code."""
    return dict(sorted(_REGISTRY.items()))


# -- shared helpers -----------------------------------------------------------


def _walk_calls(ctx: ModuleContext) -> Iterator[tuple[ast.Call, str]]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node, ctx.resolve_call(node)


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _contains(tree_nodes: list[ast.stmt], predicate: Callable[[ast.AST], bool]) -> bool:
    return any(predicate(n) for stmt in tree_nodes for n in ast.walk(stmt))


# -- RPR001: unseeded / legacy-global RNG -------------------------------------

_LEGACY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "uniform",
        "normal",
        "standard_normal",
        "choice",
        "shuffle",
        "permutation",
        "poisson",
        "exponential",
        "binomial",
        "get_state",
        "set_state",
    }
)


@register_rule
class UnseededRNG(Rule):
    """Seeded RNG everywhere: the workload profiles, ICs, and schedulers
    must be reproducible run-to-run, or the serial-vs-parallel
    bit-identity comparison has nothing stable to compare."""

    code = "RPR001"
    name = "unseeded-rng"
    summary = "unseeded default_rng() / legacy np.random global state"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call, resolved in _walk_calls(ctx):
            if resolved.endswith("numpy.random.default_rng") or resolved == "default_rng":
                if self._unseeded(call):
                    yield self.finding(
                        ctx,
                        call,
                        "np.random.default_rng() without an explicit seed; thread "
                        "the seed from an argument (seed-flow contract)",
                    )
            elif resolved.endswith("numpy.random.RandomState") or resolved == "RandomState":
                if self._unseeded(call):
                    yield self.finding(
                        ctx, call, "unseeded np.random.RandomState(); pass an explicit seed"
                    )
            else:
                parts = resolved.split(".")
                if (
                    len(parts) >= 3
                    and parts[-3] == "numpy"
                    and parts[-2] == "random"
                    and parts[-1] in _LEGACY_GLOBAL_RNG
                ):
                    yield self.finding(
                        ctx,
                        call,
                        f"legacy global-state RNG np.random.{parts[-1]}(); use a "
                        "seeded np.random.default_rng(seed) Generator instead",
                    )

    @staticmethod
    def _unseeded(call: ast.Call) -> bool:
        if call.args and not _is_none(call.args[0]):
            return False
        for kw in call.keywords:
            if kw.arg == "seed" and not _is_none(kw.value):
                return False
        return not call.args or _is_none(call.args[0])


# -- RPR002: unordered iteration feeding numerical accumulation ---------------


def _unordered_kind(node: ast.expr, ctx: ModuleContext) -> str | None:
    """Classify an iterable expression as unordered (set/dict view)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node)
        if resolved in ("set", "frozenset"):
            return "set"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "items", "keys")
            and not node.args
            and not node.keywords
        ):
            return f"dict .{node.func.attr}() view"
    return None


def _has_accumulation(body: list[ast.stmt]) -> bool:
    """Loop body contains ``acc += x`` / ``acc = acc + x`` style updates."""
    for stmt in body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.AugAssign) and isinstance(n.op, (ast.Add, ast.Sub, ast.Mult)):
                return True
            if (
                isinstance(n, ast.Assign)
                and len(n.targets) == 1
                and isinstance(n.targets[0], ast.Name)
                and isinstance(n.value, ast.BinOp)
                and isinstance(n.value.op, (ast.Add, ast.Sub, ast.Mult))
            ):
                target = n.targets[0].id
                if any(
                    isinstance(sub, ast.Name) and sub.id == target
                    for sub in ast.walk(n.value)
                ):
                    return True
    return False


@register_rule
class UnorderedAccumulation(Rule):
    """Float addition is not associative: summing over a set (or a dict
    view whose insertion order differs across ranks) yields different
    bits on different schedules — exactly what the merged Level-3
    catalog comparison would flag as a corrupted reduction."""

    code = "RPR002"
    name = "unordered-accumulation"
    summary = "set/dict iteration feeding numerical accumulation"
    default_scopes = ("analysis", "exec")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                kind = _unordered_kind(node.iter, ctx)
                if kind and _has_accumulation(node.body):
                    yield self.finding(
                        ctx,
                        node,
                        f"iteration over a {kind} feeds a numerical accumulation; "
                        "order-dependent float sums break bit-identical reductions "
                        "(iterate a sorted/stable sequence)",
                    )
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve_call(node)
                if resolved == "sum" and node.args:
                    kind = _unordered_kind(node.args[0], ctx)
                    if kind:
                        yield self.finding(
                            ctx,
                            node,
                            f"sum() over a {kind} is order-dependent for floats; "
                            "sort the operands first",
                        )


# -- RPR003: wall-clock calls in pure analysis kernels ------------------------

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
    }
)


@register_rule
class WallClockInKernel(Rule):
    """Pure analysis kernels must be functions of their inputs only.
    Timing belongs to :mod:`repro.obs` spans (which wrap the kernel from
    the outside); a clock read inside a kernel is hidden state that the
    determinism harness cannot control."""

    code = "RPR003"
    name = "wall-clock-in-kernel"
    summary = "wall-clock call inside a pure analysis kernel"
    #: the PM hot path (``sim/pmsolver.py``) and the shared per-step
    #: spatial cache (``insitu/spatial.py``) are pure kernels too — their
    #: timing is spans, so clock reads inside them are a determinism bug,
    #: not instrumentation.  The ``parallel``
    #: scope covers the whole SPMD substrate including the process
    #: transport (``parallel/transport.py``): rank code must be replayable,
    #: so its polling loops budget in fixed poll *steps*, never wall time.
    #: The ``service`` scope holds the campaign service to the same bar:
    #: store/worker/packer time comes from an injectable clock (held by
    #: reference), so kill/resume drills replay bit-identically.
    default_scopes = (
        "analysis",
        "parallel",
        "io",
        "streaming",
        "service",
        "sim/pmsolver.py",
        "insitu/spatial.py",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call, resolved in _walk_calls(ctx):
            if resolved in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    call,
                    f"wall-clock call {resolved}() inside a pure analysis kernel; "
                    "timing belongs in repro.obs instrumentation (allowed only in obs/)",
                )


# -- RPR004: float equality ----------------------------------------------------


def _is_float_expr(node: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_expr(node.operand, ctx)
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node)
        if resolved == "float" or resolved.startswith("numpy.float"):
            return True
    return False


@register_rule
class FloatEquality(Rule):
    """``==`` on floats silently depends on rounding history; a kernel
    that "works" serially can disagree with its parallel twin by one
    ulp and flip the comparison.  Use tolerances (np.isclose) or
    integer/bit comparisons."""

    code = "RPR004"
    name = "float-equality"
    summary = "float ==/!= comparison"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands[:-1], operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    _is_float_expr(left, ctx) or _is_float_expr(right, ctx)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "float ==/!= comparison is rounding-history-dependent; "
                        "use math.isclose/np.isclose or an explicit tolerance",
                    )
                    break


# -- RPR005: shared-memory lifecycle ------------------------------------------

_SHM_TAILS: tuple[tuple[str, ...], ...] = (
    ("SharedMemory",),
    ("SharedParticleStore", "create"),
    ("SharedParticleStore", "attach"),
)


@register_rule
class SharedMemoryLifecycle(Rule):
    """A shared-memory segment created without a context manager or a
    try/finally that unlinks it survives the process — the classic shm
    leak that eventually fills ``/dev/shm`` on a long co-scheduling
    campaign."""

    code = "RPR005"
    name = "shm-lifecycle"
    summary = "shared-memory construction outside with/try-finally"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call, _resolved in _walk_calls(ctx):
            chain = dotted_chain(call.func)
            if not chain:
                continue
            if not any(
                chain[-len(tail) :] == tail for tail in _SHM_TAILS if len(chain) >= len(tail)
            ):
                continue
            if self._lifecycle_ok(call, ctx):
                continue
            yield self.finding(
                ctx,
                call,
                f"{'.'.join(chain)}(...) outside a context manager or try/finally; "
                "shared-memory segments leak unless close()/unlink() is guaranteed",
            )

    @staticmethod
    def _lifecycle_ok(call: ast.Call, ctx: ModuleContext) -> bool:
        for anc in ctx.ancestors(call):
            if isinstance(anc, (ast.withitem, ast.Try)):
                return True
        parent = ctx.parent(call)
        if (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
        ):
            var = parent.targets[0].id
            scope = ctx.enclosing_scope(call)
            for node in ast.walk(scope):
                if not isinstance(node, ast.Try):
                    continue
                guarded = node.finalbody + [s for h in node.handlers for s in h.body]
                if _contains(guarded, lambda n: isinstance(n, ast.Name) and n.id == var):
                    return True
        return False


# -- RPR006: silent broad exception handlers ----------------------------------


def _is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    names = [t] if not isinstance(t, ast.Tuple) else list(t.elts)
    for n in names:
        chain = dotted_chain(n) if isinstance(n, (ast.Name, ast.Attribute)) else ()
        if chain and chain[-1] in ("Exception", "BaseException"):
            return True
    return False


@register_rule
class SilentBroadExcept(Rule):
    """Workflow systems fail *silently* when task code swallows broad
    exceptions: the listener keeps polling, the catalog quietly misses
    a halo.  A broad handler must re-raise or emit a telemetry event so
    the failure is observable."""

    code = "RPR006"
    name = "silent-broad-except"
    summary = "broad except that swallows without telemetry"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        telemetry = set(ctx.config.telemetry_names)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
                continue
            if _contains(node.body, lambda n: isinstance(n, ast.Raise)):
                continue
            if _contains(
                node.body,
                lambda n: isinstance(n, ast.Call)
                and (
                    (isinstance(n.func, ast.Attribute) and n.func.attr in telemetry)
                    or (isinstance(n.func, ast.Name) and n.func.id in telemetry)
                ),
            ):
                continue
            yield self.finding(
                ctx,
                node,
                "broad except swallows the error without emitting a telemetry "
                "event; narrow the exception type, re-raise, or rec.event(...) it",
            )


# -- RPR007: mutable default arguments ----------------------------------------

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


@register_rule
class MutableDefaultArg(Rule):
    """A mutable default is shared across calls — per-halo state bleeds
    between work items, which on the parallel path means results depend
    on which worker processed which halo first."""

    code = "RPR007"
    name = "mutable-default-arg"
    summary = "mutable default argument"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is None:
                    continue
                if self._mutable(default, ctx):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); use None and "
                        "construct inside the function",
                    )

    @staticmethod
    def _mutable(node: ast.expr, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and ctx.resolve_call(node) in _MUTABLE_FACTORIES


# -- RPR008: span misuse -------------------------------------------------------


@register_rule
class SpanOutsideWith(Rule):
    """A span handle whose ``__enter__``/``__exit__`` are driven by hand
    leaks an open span whenever the code between begin and end raises —
    the Chrome trace then shows phantom never-ending phases.  Only the
    ``with rec.span(...)`` form (or returning the handle from a factory)
    is allowed."""

    code = "RPR008"
    name = "span-outside-with"
    summary = "span begin/end outside context-manager form"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "__enter__",
                "__exit__",
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"manual {node.func.attr}() call; use the `with` statement",
                )
                continue
            if not (isinstance(node.func, ast.Attribute) and node.func.attr == "span"):
                continue
            if self._span_ok(node, ctx):
                continue
            yield self.finding(
                ctx,
                node,
                ".span(...) used outside `with` context-manager form; manual "
                "begin/end leaks open spans on error paths",
            )

    @staticmethod
    def _span_ok(call: ast.Call, ctx: ModuleContext) -> bool:
        parent = ctx.parent(call)
        if isinstance(parent, ast.Return):
            return True  # factory forwarding (e.g. recorder.span -> tracer.span)
        for anc in ctx.ancestors(call):
            if isinstance(anc, ast.withitem):
                return True
            if isinstance(anc, ast.stmt):
                break
        return False


# -- RPR009: hand-rolled sleep/retry loops ------------------------------------


@register_rule
class SleepRetryLoop(Rule):
    """A ``while``/``for`` loop that catches exceptions and ``time.sleep``\\ s
    before trying again is a shadow retry mechanism: its backoff is
    unseeded (two runs wait differently), it emits no ``retry.*``
    telemetry, and the fault-injection sites cannot see its attempts.
    All retrying goes through :class:`repro.faults.RetryPolicy`, which
    provides deterministic seeded jitter, capped backoff, and the
    ``retries_total`` accounting that docs/failures.md documents."""

    code = "RPR009"
    name = "sleep-retry-loop"
    summary = "hand-rolled time.sleep retry loop (use repro.faults.RetryPolicy)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            own = list(self._own_nodes(node))
            has_try = any(isinstance(n, ast.Try) for n in own)
            sleeps = [
                n
                for n in own
                if isinstance(n, ast.Call) and ctx.resolve_call(n) == "time.sleep"
            ]
            if has_try and sleeps:
                yield self.finding(
                    ctx,
                    sleeps[0],
                    "time.sleep inside an exception-handling retry loop; use "
                    "repro.faults.RetryPolicy (seeded backoff + telemetry) instead",
                )

    @staticmethod
    def _own_nodes(loop: ast.While | ast.For) -> Iterator[ast.AST]:
        """Walk the loop body without descending into nested loops or
        nested function/class definitions (those are judged on their
        own)."""
        stack: list[ast.AST] = list(loop.body) + list(loop.orelse)
        stop = (ast.While, ast.For, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        while stack:
            n = stack.pop()
            yield n
            if isinstance(n, stop):
                continue
            stack.extend(ast.iter_child_nodes(n))


# -- RPR010: print() in library code ------------------------------------------

#: Module basenames that ARE the user-facing console — the one place
#: ``print`` is the correct output channel.
_CLI_BASENAMES = frozenset({"cli.py", "__main__.py"})


@register_rule
class LibraryPrint(Rule):
    """``print()`` in library code is telemetry that escapes the run
    journal: it cannot be correlated to a run / step / rank, does not
    reach the JSONL sinks or ``python -m repro.obs tail``, and garbles
    the output of the CLIs that legitimately own stdout.  Diagnostics
    go through :meth:`repro.obs.TelemetryRecorder.event` (structured,
    journaled, rate-bounded).  CLI surfaces (``cli.py`` /
    ``__main__.py``) are exempt — printing is their job."""

    code = "RPR010"
    name = "library-print"
    summary = "print() in library code (route through repro.obs events)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        import os

        if os.path.basename(ctx.path) in _CLI_BASENAMES:
            return
        for node, resolved in _walk_calls(ctx):
            if resolved == "print":
                yield self.finding(
                    ctx,
                    node,
                    "print() in library code bypasses the run journal; emit a "
                    "repro.obs event (or move the output to a cli.py/__main__.py "
                    "surface)",
                )
