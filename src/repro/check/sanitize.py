"""Opt-in runtime sanitizers pairing the static rules with live checks.

Everything here is gated on the ``REPRO_SANITIZE`` environment variable
(``1``/``true``/``yes``/``on``): with it unset, every hook is a cheap
early-return so production hot paths pay (near) nothing — the same
"minimally intrusive" contract as :mod:`repro.obs`.

Three sanitizers:

``@guard_kernel``
    Decorator for pure analysis kernels (center / SO / subhalo finding).
    After each call it walks the outputs for NaN/Inf values and for
    float *dtype drift* (a float32 sneaking out of a float64 pipeline —
    the silent precision loss that breaks bit-identical reductions) and
    raises :class:`SanitizerError` on violation.

``track_store`` / ``untrack_store`` / ``leak_report``
    Shared-memory leak tracker wired into
    :class:`repro.exec.sharedmem.SharedParticleStore`: every owning
    store is registered at creation and released at ``unlink``; an
    ``atexit`` hook reports anything still live (an RPR005 violation
    observed at runtime) to stderr and the telemetry recorder.

``check_determinism``
    Run-twice harness: executes a kernel ``runs`` times and compares
    structural output hashes, catching order-dependent accumulation or
    hidden RNG/clock state (the runtime twin of RPR001-RPR003).
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import os
import sys
import functools
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

__all__ = [
    "DeterminismError",
    "DeterminismReport",
    "SanitizerError",
    "check_determinism",
    "guard_kernel",
    "leak_report",
    "output_hash",
    "sanitize_enabled",
    "track_store",
    "untrack_store",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})

F = TypeVar("F", bound=Callable[..., Any])


class SanitizerError(RuntimeError):
    """A runtime sanitizer check failed (NaN/Inf, dtype drift, leak)."""


class DeterminismError(SanitizerError):
    """Repeated kernel runs produced different output hashes."""


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


# -- structural output walking -------------------------------------------------


def _walk_values(obj: Any, depth: int = 0) -> list[Any]:
    """Flatten nested containers / dataclasses into leaf values."""
    if depth > 6:
        return [obj]
    if isinstance(obj, np.ndarray) or np.isscalar(obj) or obj is None:
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: list[Any] = []
        for f in dataclasses.fields(obj):
            out.extend(_walk_values(getattr(obj, f.name), depth + 1))
        return out
    if isinstance(obj, dict):
        out = []
        for key in sorted(obj, key=repr):
            out.extend(_walk_values(obj[key], depth + 1))
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for item in obj:
            out.extend(_walk_values(item, depth + 1))
        return out
    return [obj]


def _float_dtypes(values: list[Any]) -> set[str]:
    out: set[str] = set()
    for v in values:
        if isinstance(v, np.ndarray) and np.issubdtype(v.dtype, np.floating):
            out.add(v.dtype.str)
        elif isinstance(v, np.floating):
            out.add(np.dtype(type(v)).str)
    return out


# -- @guard_kernel -------------------------------------------------------------


def guard_kernel(
    fn: F | None = None,
    *,
    name: str | None = None,
    check_finite: bool = True,
    check_dtype: bool = True,
) -> Any:
    """Decorate a pure analysis kernel with NaN/Inf + dtype-drift checks.

    With ``REPRO_SANITIZE`` unset the wrapper is a single env lookup
    plus the call; with it set, the kernel's outputs are walked after
    every call and a :class:`SanitizerError` names the kernel, the
    offending value class, and the count of bad elements.
    """

    def decorate(func: F) -> F:
        kernel = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not sanitize_enabled():
                return func(*args, **kwargs)
            in_dtypes = _float_dtypes(_walk_values([*args, *kwargs.values()]))
            result = func(*args, **kwargs)
            values = _walk_values(result)
            if check_finite:
                _assert_finite(kernel, values)
            if check_dtype and in_dtypes:
                _assert_no_drift(kernel, in_dtypes, values)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate if fn is None else decorate(fn)


def _assert_finite(kernel: str, values: list[Any]) -> None:
    for v in values:
        if isinstance(v, np.ndarray) and np.issubdtype(v.dtype, np.floating):
            bad = int(np.count_nonzero(~np.isfinite(v)))
            if bad:
                _emit("sanitize.nonfinite", kernel=kernel, bad=bad)
                raise SanitizerError(
                    f"guard_kernel[{kernel}]: {bad} non-finite value(s) in a "
                    f"{v.dtype} output array of shape {v.shape}"
                )
        elif isinstance(v, (float, np.floating)) and not np.isfinite(v):
            _emit("sanitize.nonfinite", kernel=kernel, bad=1)
            raise SanitizerError(
                f"guard_kernel[{kernel}]: non-finite scalar output {v!r}"
            )


def _assert_no_drift(kernel: str, in_dtypes: set[str], values: list[Any]) -> None:
    out_dtypes = _float_dtypes(values)
    drifted = sorted(out_dtypes - in_dtypes)
    if drifted:
        widest_in = max(np.dtype(d).itemsize for d in in_dtypes)
        narrow = [d for d in drifted if np.dtype(d).itemsize < widest_in]
        if narrow:
            _emit(
                "sanitize.dtype_drift",
                kernel=kernel,
                inputs=sorted(in_dtypes),
                outputs=sorted(out_dtypes),
            )
            raise SanitizerError(
                f"guard_kernel[{kernel}]: float dtype drift — inputs "
                f"{sorted(in_dtypes)} but outputs include narrower {narrow} "
                "(silent precision loss breaks bit-identical reductions)"
            )


def _emit(event: str, **fields: Any) -> None:
    """Journal a violation as an error event (no-op when obs is disabled)."""
    from ..obs import get_recorder

    get_recorder().event(event, level="error", **fields)


# -- shared-memory leak tracker ------------------------------------------------

_live_stores: dict[int, dict[str, Any]] = {}
_atexit_registered = False


def track_store(store: Any) -> None:
    """Register an *owning* shared-memory store (no-op unless enabled)."""
    global _atexit_registered
    if not sanitize_enabled():
        return
    fields = list(getattr(store, "fields", []))
    spec = getattr(store, "spec", {})
    _live_stores[id(store)] = {
        "fields": fields,
        "segments": sorted(str(name) for name, _, _ in spec.values()),
        "nbytes": int(getattr(store, "nbytes", 0)),
    }
    if not _atexit_registered:
        atexit.register(_atexit_report)
        _atexit_registered = True


def untrack_store(store: Any) -> None:
    """Mark a store's segments as released (called from ``unlink``)."""
    _live_stores.pop(id(store), None)


def leak_report() -> list[dict[str, Any]]:
    """Currently-live (never-unlinked) owning stores."""
    return [dict(v) for v in _live_stores.values()]


def reset_leak_tracker() -> None:
    """Forget all tracked stores (test isolation helper)."""
    _live_stores.clear()


def _atexit_report() -> None:
    leaks = leak_report()
    if not leaks:
        return
    total = sum(leak["nbytes"] for leak in leaks)
    # RPR010 suppressed: this runs at interpreter exit, after telemetry
    # recorders and journal sinks may already be torn down — stderr is
    # the only channel guaranteed to still exist.
    print(  # repro: noqa[RPR010]
        f"repro.check.sanitize: {len(leaks)} shared-memory store(s) never "
        f"unlinked ({total} bytes) — RPR005 violation observed at runtime:",
        file=sys.stderr,
    )
    for leak in leaks:
        print(  # repro: noqa[RPR010]
            f"  fields={leak['fields']} segments={leak['segments']}", file=sys.stderr
        )
    _emit("sanitize.shm_leak", leaks=len(leaks), nbytes=total)


# -- determinism harness -------------------------------------------------------


def output_hash(obj: Any) -> str:
    """Stable structural SHA-256 of a kernel's output.

    Arrays hash as ``dtype | shape | raw bytes`` so a one-ulp float
    difference changes the digest; containers and dataclasses hash
    field-by-field in a canonical order.
    """
    h = hashlib.sha256()

    def feed(value: Any, depth: int = 0) -> None:
        if depth > 8:
            h.update(repr(value).encode())
            return
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            h.update(b"nd|")
            h.update(str(arr.dtype.str).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        elif isinstance(value, (np.generic,)):
            h.update(b"sc|")
            h.update(np.asarray(value).tobytes())
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            h.update(b"dc|" + type(value).__name__.encode())
            for f in dataclasses.fields(value):
                h.update(f.name.encode())
                feed(getattr(value, f.name), depth + 1)
        elif isinstance(value, dict):
            h.update(b"map|")
            for key in sorted(value, key=repr):
                h.update(repr(key).encode())
                feed(value[key], depth + 1)
        elif isinstance(value, (list, tuple)):
            h.update(b"seq|")
            for item in value:
                feed(item, depth + 1)
        elif isinstance(value, float):
            h.update(b"f|")
            h.update(np.float64(value).tobytes())
        else:
            h.update(repr(value).encode())

    feed(obj)
    return h.hexdigest()


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a :func:`check_determinism` run."""

    ok: bool
    runs: int
    hashes: tuple[str, ...]
    kernel: str

    @property
    def distinct(self) -> int:
        return len(set(self.hashes))


def check_determinism(
    fn: Callable[..., Any],
    *args: Any,
    runs: int = 2,
    raise_on_mismatch: bool = True,
    **kwargs: Any,
) -> DeterminismReport:
    """Run ``fn`` repeatedly and compare structural output hashes.

    Catches hidden nondeterminism — unseeded RNG, unordered-collection
    float accumulation, wall-clock leakage — that the static rules can
    only flag syntactically.  Raises :class:`DeterminismError` on
    mismatch unless ``raise_on_mismatch=False``.
    """
    if runs < 2:
        raise ValueError("runs must be >= 2")
    kernel = getattr(fn, "__qualname__", repr(fn))
    hashes = tuple(output_hash(fn(*args, **kwargs)) for _ in range(runs))
    ok = len(set(hashes)) == 1
    report = DeterminismReport(ok=ok, runs=runs, hashes=hashes, kernel=kernel)
    if not ok:
        _emit("sanitize.nondeterministic", kernel=kernel, runs=runs)
        if raise_on_mismatch:
            raise DeterminismError(
                f"check_determinism[{kernel}]: {report.distinct} distinct output "
                f"hashes across {runs} runs — kernel is not a pure function of "
                "its inputs"
            )
    return report
