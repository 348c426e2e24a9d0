"""Execution backends for the data-parallel primitive library.

The paper's analysis algorithms are written once against PISTON/VTK-m
(built on NVIDIA Thrust) and compiled to multiple backends (CUDA, OpenMP,
TBB, serial).  This module reproduces that design in Python: a primitive
such as :func:`repro.dataparallel.primitives.reduce_by_key` is written once
and dispatched to a :class:`Backend` implementation.

Two backends are provided:

``serial``
    Pure-Python loops.  This is the stand-in for the paper's single-rank
    CPU execution path (the serial A*-era code path on Titan's CPUs).

``vector``
    NumPy-vectorized execution.  This is the stand-in for the paper's
    GPU / many-core Thrust path.  The measured ``serial``/``vector`` speed
    ratio plays the role of the paper's ~50x CPU-to-GPU speedup and is fed
    into the machine cost model (:mod:`repro.machines.cost`).

Backends are selected globally via :func:`set_default_backend`, per call
via the ``backend=`` keyword accepted by every primitive, or temporarily
via the :func:`use_backend` context manager.
"""

from __future__ import annotations

import contextlib
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "Backend",
    "SerialBackend",
    "VectorBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "use_backend",
]


class Backend(ABC):
    """Abstract execution backend for data-parallel primitives.

    A backend supplies the small set of Thrust-style building blocks from
    which every analysis primitive in :mod:`repro.dataparallel.primitives`
    is composed.  Inputs are 1-D :class:`numpy.ndarray` objects; outputs
    are new arrays (primitives are purely functional, mirroring Thrust's
    transform/reduce/scan semantics).
    """

    #: Registry name; subclasses must override.
    name: str = "abstract"

    # -- elementwise ---------------------------------------------------

    @abstractmethod
    def map(self, fn: Callable[..., Any], *arrays: np.ndarray) -> np.ndarray:
        """Apply ``fn`` elementwise over equally-sized arrays."""

    # -- reductions ----------------------------------------------------

    @abstractmethod
    def reduce(self, array: np.ndarray, op: Callable[[Any, Any], Any], init: Any) -> Any:
        """Fold ``array`` with associative binary ``op`` starting at ``init``."""

    @abstractmethod
    def scan(self, array: np.ndarray, op: Callable[[Any, Any], Any], *, exclusive: bool, init: Any) -> np.ndarray:
        """Prefix-scan ``array`` with associative ``op``."""

    # -- key/value -----------------------------------------------------

    @abstractmethod
    def sort_by_key(self, keys: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Stable sort of ``values`` (and the keys) by ``keys`` ascending."""

    @abstractmethod
    def reduce_by_key(
        self, keys: np.ndarray, values: np.ndarray, op: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented reduction over runs of equal *sorted* keys.

        ``op`` is one of ``"sum"``, ``"min"``, ``"max"``, ``"count"``.
        Returns ``(unique_keys, reduced_values)``.
        """

    # -- data movement ---------------------------------------------------

    @abstractmethod
    def gather(self, indices: np.ndarray, source: np.ndarray) -> np.ndarray:
        """Return ``source[indices]``."""

    @abstractmethod
    def scatter(self, values: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``values`` into ``out`` at ``indices``; returns ``out``."""


_REDUCE_OPS_NUMPY = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


class SerialBackend(Backend):
    """Pure-Python loop backend (the CPU single-thread stand-in)."""

    name = "serial"

    def map(self, fn, *arrays):
        if not arrays:
            raise ValueError("map requires at least one input array")
        n = len(arrays[0])
        for a in arrays[1:]:
            if len(a) != n:
                raise ValueError("map inputs must have equal length")
        out = [fn(*(a[i] for a in arrays)) for i in range(n)]
        return np.asarray(out)

    def reduce(self, array, op, init):
        acc = init
        for x in array:
            acc = op(acc, x)
        return acc

    def scan(self, array, op, *, exclusive, init):
        out = np.empty(len(array), dtype=np.asarray(array).dtype if len(array) else float)
        acc = init
        if exclusive:
            for i, x in enumerate(array):
                out[i] = acc
                acc = op(acc, x)
        else:
            for i, x in enumerate(array):
                acc = op(acc, x)
                out[i] = acc
        return out

    def sort_by_key(self, keys, *values):
        order = sorted(range(len(keys)), key=lambda i: keys[i])
        order = np.asarray(order, dtype=np.intp)
        return (np.asarray(keys)[order], *(np.asarray(v)[order] for v in values))

    def reduce_by_key(self, keys, values, op):
        keys = np.asarray(keys)
        values = np.asarray(values)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            return keys[:0], values[:0]
        uk: list = []
        rv: list = []
        cur_key = keys[0]
        if op == "count":
            acc = 1
        else:
            acc = values[0]
        pyop = {"sum": lambda a, b: a + b, "min": min, "max": max, "count": lambda a, b: a + 1}[op]
        for i in range(1, len(keys)):
            if keys[i] == cur_key:
                acc = pyop(acc, values[i])
            else:
                uk.append(cur_key)
                rv.append(acc)
                cur_key = keys[i]
                acc = 1 if op == "count" else values[i]
        uk.append(cur_key)
        rv.append(acc)
        out_dtype = np.intp if op == "count" else values.dtype
        return np.asarray(uk, dtype=keys.dtype), np.asarray(rv, dtype=out_dtype)

    def gather(self, indices, source):
        return np.asarray([source[i] for i in indices], dtype=np.asarray(source).dtype)

    def scatter(self, values, indices, out):
        for v, i in zip(values, indices):
            out[i] = v
        return out


class VectorBackend(Backend):
    """NumPy-vectorized backend (the GPU / many-core stand-in)."""

    name = "vector"

    def map(self, fn, *arrays):
        if not arrays:
            raise ValueError("map requires at least one input array")
        # Try whole-array application first (fn written with numpy ufuncs),
        # falling back to np.vectorize for scalar-only callables.  Only the
        # error classes a scalar-only callable produces when handed whole
        # arrays trigger the fallback; genuine kernel bugs propagate.
        try:
            out = fn(*arrays)
            out = np.asarray(out)
            if out.shape[:1] == np.asarray(arrays[0]).shape[:1]:
                return out
        except (TypeError, ValueError, AttributeError, IndexError) as exc:
            from ..obs import get_recorder

            rec = get_recorder()
            rec.counter("dataparallel_map_fallbacks_total").inc()
            rec.event(
                "dataparallel.map_fallback",
                level="debug",
                fn=getattr(fn, "__name__", repr(fn)),
                error=f"{type(exc).__name__}: {exc}",
            )
        return np.vectorize(fn)(*arrays)

    def reduce(self, array, op, init):
        array = np.asarray(array)
        if array.size == 0:
            return init
        ufunc = _lookup_ufunc(op)
        if ufunc is not None:
            return op(init, ufunc.reduce(array))
        acc = init
        for x in array:
            acc = op(acc, x)
        return acc

    def scan(self, array, op, *, exclusive, init):
        array = np.asarray(array)
        ufunc = _lookup_ufunc(op)
        if ufunc is None:
            return SerialBackend().scan(array, op, exclusive=exclusive, init=init)
        inclusive = ufunc.accumulate(array) if array.size else array.copy()
        inclusive = op(init, inclusive) if array.size else inclusive
        if not exclusive:
            return inclusive
        out = np.empty_like(inclusive)
        if array.size:
            out[0] = init
            out[1:] = inclusive[:-1]
        return out

    def sort_by_key(self, keys, *values):
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        return (keys[order], *(np.asarray(v)[order] for v in values))

    def reduce_by_key(self, keys, values, op):
        keys = np.asarray(keys)
        values = np.asarray(values)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if keys.size == 0:
            return keys[:0], values[:0]
        boundaries = np.empty(keys.size, dtype=bool)
        boundaries[0] = True
        boundaries[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(boundaries)
        unique_keys = keys[starts]
        if op == "count":
            counts = np.diff(np.append(starts, keys.size))
            return unique_keys, counts.astype(np.intp)
        ufunc = _REDUCE_OPS_NUMPY[op]
        reduced = ufunc.reduceat(values, starts)
        return unique_keys, reduced

    def gather(self, indices, source):
        return np.asarray(source)[np.asarray(indices)]

    def scatter(self, values, indices, out):
        out[np.asarray(indices)] = np.asarray(values)
        return out


def _lookup_ufunc(op: Callable) -> np.ufunc | None:
    """Map a scalar binary callable to the equivalent numpy ufunc, if known."""
    if isinstance(op, np.ufunc):
        return op
    table = {
        "add": np.add,
        "mul": np.multiply,
        "min": np.minimum,
        "max": np.maximum,
    }
    name = getattr(op, "__name__", "")
    if name in table:
        return table[name]
    # Probe common operator-module callables.
    import operator

    probes = {
        operator.add: np.add,
        operator.mul: np.multiply,
    }
    return probes.get(op)


_registry: dict[str, Backend] = {}
_state = threading.local()


def register_backend(backend: Backend) -> None:
    """Register ``backend`` under ``backend.name`` for global lookup."""
    _registry[backend.name] = backend


def available_backends() -> list[str]:
    """Names of all registered backends."""
    return sorted(_registry)


def get_backend(name: str | Backend | None = None) -> Backend:
    """Resolve a backend by name; ``None`` returns the current default."""
    if isinstance(name, Backend):
        return name
    if name is None:
        name = getattr(_state, "default", "vector")
    try:
        return _registry[name]
    except KeyError:
        raise KeyError(f"unknown backend {name!r}; available: {available_backends()}") from None


def set_default_backend(name: str) -> None:
    """Set the process-default backend (thread-local)."""
    get_backend(name)  # validate
    _state.default = name


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Temporarily switch the default backend within a ``with`` block."""
    previous = getattr(_state, "default", "vector")
    set_default_backend(name)
    try:
        yield get_backend(name)
    finally:
        _state.default = previous


register_backend(SerialBackend())
register_backend(VectorBackend())
