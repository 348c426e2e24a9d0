"""Structured event log: the workflow's correlated record of *what happened*.

Workflow systems (Balsam, Wilkins — see PAPERS.md) treat a structured
log of job/state transitions as the backbone of both debugging and
performance analysis.  This module provides that backbone for the whole
repro stack:

* :class:`Event` — one timestamped record with correlation fields
  (``run``/``step``/``rank``) so simulation steps, in-situ algorithms,
  listener polls and off-line jobs land on a single timeline;
* :class:`EventLog` — a thread-safe bounded in-memory ring (old events
  fall off the back, so long co-scheduled runs cannot leak).

Durability is not this module's job: the recorder streams events into a
:class:`repro.obs.journal.AppendLog` (``jsonl_path``) or an attached
run journal, and :func:`repro.obs.journal.read_journal` replays either.

Timestamps are ``time.perf_counter()`` (monotonic — immune to NTP
steps; what span durations are measured with) plus a wall-clock epoch
field for correlating across processes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["Event", "EventLog"]

#: Default in-memory ring capacity (events beyond this age out).
DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class Event:
    """One structured log record.

    ``t`` is monotonic seconds (:func:`time.perf_counter`), ``wall`` is
    the epoch time; ``run``/``step``/``rank`` are the correlation axes
    the paper's analysis slices along (per-run, per-timestep, per-node).
    """

    name: str
    t: float
    wall: float
    level: str = "info"
    run: str | None = None
    step: int | None = None
    rank: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "kind": "event",
            "name": self.name,
            "t": self.t,
            "wall": self.wall,
            "level": self.level,
        }
        if self.run is not None:
            d["run"] = self.run
        if self.step is not None:
            d["step"] = self.step
        if self.rank is not None:
            d["rank"] = self.rank
        if self.fields:
            d["fields"] = self.fields
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Event":
        return cls(
            name=d["name"],
            t=float(d.get("t", 0.0)),
            wall=float(d.get("wall", 0.0)),
            level=d.get("level", "info"),
            run=d.get("run"),
            step=d.get("step"),
            rank=d.get("rank"),
            fields=dict(d.get("fields", {})),
        )


class EventLog:
    """Thread-safe bounded ring of :class:`Event` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.emitted_total = 0
        self.dropped_total = 0

    def emit(
        self,
        name: str,
        level: str = "info",
        run: str | None = None,
        step: int | None = None,
        rank: int | None = None,
        **fields: Any,
    ) -> Event:
        """Append a new event (now-stamped) and return it."""
        ev = Event(
            name=name,
            t=time.perf_counter(),
            wall=time.time(),
            level=level,
            run=run,
            step=step,
            rank=rank,
            fields=fields,
        )
        self.append(ev)
        return ev

    def append(self, event: Event) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped_total += 1
            self._ring.append(event)
            self.emitted_total += 1

    def snapshot(self) -> list[Event]:
        """Point-in-time copy of the ring contents (oldest first)."""
        with self._lock:
            return list(self._ring)

    def rebound(self, capacity: int) -> None:
        """Resize the ring in place, keeping the *newest* events.

        Used when a journal sink takes over durability: the disk holds
        the full stream, so memory only needs a recent tail.
        """
        capacity = max(1, int(capacity))
        with self._lock:
            self._ring = deque(self._ring, maxlen=capacity)
            self.capacity = capacity

    def by_level(self, level: str) -> list[Event]:
        return [e for e in self.snapshot() if e.level == level]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __iter__(self):
        return iter(self.snapshot())


def _json_default(obj: Any) -> Any:
    """Best-effort serialization for numpy scalars and friends."""
    for attr in ("item",):  # numpy scalar -> python scalar
        if hasattr(obj, attr):
            try:
                return getattr(obj, attr)()
            except (TypeError, ValueError):  # pragma: no cover - non-scalar .item()
                pass
    return repr(obj)


def merge_timelines(*streams: Iterable[Event]) -> list[Event]:
    """Merge event streams into one monotonic-time-ordered timeline."""
    out: list[Event] = []
    for s in streams:
        out.extend(s)
    out.sort(key=lambda e: e.t)
    return out
