"""Zero-dependency metrics registry: counters and gauges.

The numeric side of the telemetry layer: monotonically-increasing
counters (bytes written, jobs submitted/failed) and point-in-time gauges
(listener backlog, peak RSS).  Durations are not metrics: every timed
block is a span (:mod:`repro.obs.spans`), so a phase's time is read in
one place — the span tree — and never also from a second series.

Everything is thread-safe and renders to a Prometheus-style text
exposition (:meth:`MetricsRegistry.render_text`) with no external
dependencies, so a long-running co-scheduled listener can be scraped
or dumped with plain ``print``.
"""

from __future__ import annotations

import math
import resource
import sys
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "PEAK_RSS_GAUGE",
    "sample_memory",
]

#: Gauge name :func:`sample_memory` updates (bytes; the ``max`` watermark
#: is the process-lifetime peak).
PEAK_RSS_GAUGE = "process_peak_rss_bytes"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> list[str]:
        return [f"{self.name} {_fmt(self.value)}"]

    def state(self) -> dict[str, Any]:
        """Picklable snapshot for shipping across a process boundary."""
        return {"kind": self.kind, "value": self.value, "help": self.help}

    def absorb(self, state: dict[str, Any]) -> None:
        """Merge another process's counter state (counters add)."""
        self.inc(float(state.get("value", 0.0)))


class Gauge:
    """Point-in-time value with min/max watermarks."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._max = -math.inf
        self._min = math.inf
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._max = max(self._max, self._value)
            self._min = min(self._min, self._value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._max = max(self._max, self._value)
            self._min = min(self._min, self._value)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        """Highest value ever set (−inf if never set)."""
        with self._lock:
            return self._max

    @property
    def min(self) -> float:
        with self._lock:
            return self._min

    def render(self) -> list[str]:
        return [f"{self.name} {_fmt(self.value)}"]

    def state(self) -> dict[str, Any]:
        """Picklable snapshot for shipping across a process boundary."""
        with self._lock:
            return {
                "kind": self.kind,
                "value": self._value,
                "max": self._max,
                "min": self._min,
                "help": self.help,
            }

    def absorb(self, state: dict[str, Any]) -> None:
        """Merge another process's gauge: keep last value, widen watermarks."""
        with self._lock:
            self._value = float(state.get("value", self._value))
            self._max = max(self._max, float(state.get("max", -math.inf)))
            self._min = min(self._min, float(state.get("min", math.inf)))


def sample_memory(registry: "MetricsRegistry | None" = None) -> int:
    """Record the process peak RSS into ``process_peak_rss_bytes``.

    Reads ``ru_maxrss`` (kibibytes on Linux, bytes on macOS), converts
    to bytes, and sets the gauge on ``registry`` (default: the active
    recorder's registry).  Cheap enough to call per chunk/step; because
    ``ru_maxrss`` is the kernel's high-water mark the gauge — and its
    ``max`` watermark — is monotone within one process.  Returns the
    sampled peak in bytes.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    peak_bytes = int(peak) * scale
    help_text = "process peak resident set size (ru_maxrss), bytes"
    if registry is None:
        from .recorder import get_recorder

        # goes through the recorder facade so a disabled telemetry layer
        # stays a cached no-op (NullRecorder has no registry)
        get_recorder().gauge(PEAK_RSS_GAUGE, help=help_text).set(peak_bytes)
    else:
        registry.gauge(PEAK_RSS_GAUGE, help=help_text).set(peak_bytes)
    return peak_bytes


def _fmt(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """Get-or-create registry keyed by metric name.

    Asking twice for the same name returns the same instance; asking
    for an existing name with a different kind raises — the registry is
    the single source of truth for the run's numeric state.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def _get_or_create(self, name: str, cls: type, help: str) -> Any:
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = cls(name, help)
                self._metrics[name] = m
            elif not isinstance(m, cls):
                raise TypeError(f"metric {name!r} is a {m.kind}, not a {cls.kind}")
            return m

    def get(self, name: str) -> Any | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def as_dict(self) -> dict[str, float]:
        """Flat name → value view (what a journal metrics snapshot holds)."""
        return {name: self.get(name).value for name in self.names()}

    def export_state(self) -> dict[str, dict[str, Any]]:
        """Picklable name → state map (ship a registry between processes)."""
        out: dict[str, dict[str, Any]] = {}
        for name in self.names():
            m = self.get(name)
            out[name] = m.state()
        return out

    def absorb_state(self, states: dict[str, dict[str, Any]]) -> None:
        """Merge an :meth:`export_state` payload into this registry.

        Metrics are created on demand with the shipped kind; counters
        add and gauges widen watermarks — so one registry covers the
        whole multi-process workflow.
        """
        for name in sorted(states):
            state = states[name]
            cls = Gauge if state.get("kind") == "gauge" else Counter
            self._get_or_create(name, cls, state.get("help", "")).absorb(state)

    def render_text(self) -> str:
        """Prometheus-style text exposition of every metric."""
        lines: list[str] = []
        for name in self.names():
            m = self.get(name)
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} {m.kind}")
            lines.extend(m.render())
        return "\n".join(lines) + ("\n" if lines else "")
