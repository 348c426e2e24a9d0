"""Deterministic fault injection: the seeded :class:`FaultPlan`.

The paper's co-scheduled workflow only earns its keep if the science
pipeline keeps moving when individual hops misbehave — a submit is
rejected by the batch system, a staging transfer stalls, an analysis
job overruns its allocation, a worker node dies mid-item.  This module
makes all of those failures *first-class and reproducible*: a
:class:`FaultPlan` names injection **sites** (one per workflow hop) and
decides, deterministically from a single seed, whether any given
attempt at a site fails.

Design rules:

* **Off by default.**  With no plan installed (and ``REPRO_FAULTS``
  unset) every injection point is one ``None`` check — the same
  "minimally intrusive" contract as :mod:`repro.obs`.
* **Bit-reproducible.**  Probability decisions are *hash-based*, not
  stream-based: the verdict for ``(site, key, attempt)`` is a pure
  function of the plan seed, independent of call order, thread
  interleaving, or how many other sites fired first.  Two runs with the
  same plan inject the same faults at the same keys.
* **Retry-aware.**  Attempts at the same ``(site, key)`` are counted,
  so ``fail_first=N`` expresses "the first N tries fail, then it
  works" — the canonical transient fault a
  :class:`~repro.faults.retry.RetryPolicy` must absorb.

Injection sites wired through the tree (see ``docs/failures.md``):

=====================  ======================================================
Site                   Hop
=====================  ======================================================
``listener.submit``    :meth:`repro.machines.listener.Listener.poll_once`
``offline.job``        the off-line analysis job body (workflow driver)
``scheduler.payload``  :class:`repro.machines.scheduler.Job` payload execution
``staging.put``        :meth:`repro.machines.staging.StagingArea.put`
``staging.get``        :meth:`repro.machines.staging.StagingArea.get`
``io.write``           :func:`repro.io.genericio.write_genericio`
``io.read``            :meth:`repro.io.genericio.GenericIOFile.read_block`
``stream.read``        one chunk hand-off in a :mod:`repro.streaming` stream
``exec.item``          one per-halo work item of a :mod:`repro.exec` batch
                       (pool worker or inline; in-situ batches included)
``service.job``        one campaign-service payload attempt
                       (:meth:`repro.service.worker.ServiceWorker.run_job`)
=====================  ======================================================
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KNOWN_SITES",
    "fault_plan",
    "get_fault_plan",
    "load_plan",
    "maybe_inject",
    "reset_fault_plan",
    "seeded_uniform",
    "set_fault_plan",
]

#: Every injection site wired through the tree (documentation + validation).
KNOWN_SITES: tuple[str, ...] = (
    "listener.submit",
    "offline.job",
    "scheduler.payload",
    "staging.put",
    "staging.get",
    "io.write",
    "io.read",
    "stream.read",
    "exec.item",
    "service.job",
)


class FaultInjected(RuntimeError):
    """An injected (synthetic) fault — raised at an injection site."""

    def __init__(self, site: str, key: str, attempt: int) -> None:
        super().__init__(f"injected fault at {site} (key={key!r}, attempt={attempt})")
        self.site = site
        self.key = key
        self.attempt = attempt


@dataclass(frozen=True)
class InjectedFault:
    """One positive injection verdict (what :meth:`FaultPlan.should_fail` returns)."""

    site: str
    key: str
    attempt: int
    mode: str  # "error" | "stall"
    stall_seconds: float


def seeded_uniform(seed: int, site: str, key: str, attempt: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for one injection decision.

    A pure function of its arguments (SHA-256 of the tuple), so the
    verdict does not depend on how many other decisions were drawn
    before it — the property that makes probability-mode plans
    bit-reproducible across interleavings.
    """
    digest = hashlib.sha256(f"{seed}|{site}|{key}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """Failure behaviour of one injection site.

    Parameters
    ----------
    probability:
        Each attempt fails independently with this probability
        (hash-based, see :func:`seeded_uniform`).
    fail_first:
        The first N attempts for each distinct key fail
        deterministically (transient fault; a retry then succeeds).
    always:
        Every attempt fails — a permanent outage (the degraded-mode
        drill).
    keys:
        Restrict the spec to these keys (stringified); empty = all keys.
    mode:
        ``"error"`` raises :class:`FaultInjected`; ``"stall"`` sleeps
        ``stall_seconds`` and then lets the attempt proceed (a slow hop,
        which per-attempt timeouts turn into failures).
    stall_seconds:
        Stall duration for ``mode="stall"``.
    max_total:
        Cap on total injections at this site (``None`` = unbounded).
    """

    probability: float = 0.0
    fail_first: int = 0
    always: bool = False
    keys: tuple[str, ...] = ()
    mode: str = "error"
    stall_seconds: float = 0.02
    max_total: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.fail_first < 0:
            raise ValueError("fail_first must be >= 0")
        if self.mode not in ("error", "stall"):
            raise ValueError(f"mode must be 'error' or 'stall', got {self.mode!r}")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        if self.max_total is not None and self.max_total < 0:
            raise ValueError("max_total must be >= 0")
        # normalize keys to strings (JSON plans carry ints)
        object.__setattr__(self, "keys", tuple(str(k) for k in self.keys))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.probability:
            out["probability"] = self.probability
        if self.fail_first:
            out["fail_first"] = self.fail_first
        if self.always:
            out["always"] = True
        if self.keys:
            out["keys"] = list(self.keys)
        if self.mode != "error":
            out["mode"] = self.mode
            out["stall_seconds"] = self.stall_seconds
        if self.max_total is not None:
            out["max_total"] = self.max_total
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultSpec":
        return cls(
            probability=float(d.get("probability", 0.0)),
            fail_first=int(d.get("fail_first", 0)),
            always=bool(d.get("always", False)),
            keys=tuple(d.get("keys", ())),
            mode=str(d.get("mode", "error")),
            stall_seconds=float(d.get("stall_seconds", 0.02)),
            max_total=d.get("max_total"),
        )


@dataclass
class FaultPlan:
    """A seeded, per-site fault schedule.

    The plan is *stateful* (it counts attempts per ``(site, key)`` and
    injections per site) but every verdict is reproducible: call
    :meth:`reset` between runs, or build a fresh plan from the same
    spec, and the same faults fire at the same keys.
    """

    seed: int = 0
    sites: dict[str, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._attempts: dict[tuple[str, str], int] = {}
        self._site_calls: dict[str, int] = {}
        self.injected: dict[str, int] = {}

    # -- verdicts --------------------------------------------------------------

    def should_fail(self, site: str, key: Any = None) -> InjectedFault | None:
        """Decide whether this attempt at ``site`` (for ``key``) fails."""
        spec = self.sites.get(site)
        if spec is None:
            return None
        with self._lock:
            if key is None:
                # sequence mode: every call at the site is its own key
                seq = self._site_calls.get(site, 0)
                self._site_calls[site] = seq + 1
                key_s = f"#{seq}"
            else:
                key_s = str(key)
            if spec.keys and key_s not in spec.keys:
                return None
            attempt = self._attempts.get((site, key_s), 0)
            self._attempts[(site, key_s)] = attempt + 1
            if spec.max_total is not None and self.injected.get(site, 0) >= spec.max_total:
                return None
            fail = (
                spec.always
                or attempt < spec.fail_first
                or (
                    spec.probability > 0.0
                    and seeded_uniform(self.seed, site, key_s, attempt) < spec.probability
                )
            )
            if not fail:
                return None
            self.injected[site] = self.injected.get(site, 0) + 1
        return InjectedFault(
            site=site,
            key=key_s,
            attempt=attempt,
            mode=spec.mode,
            stall_seconds=spec.stall_seconds,
        )

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """Forget attempt/injection state (run-twice determinism helper)."""
        with self._lock:
            self._attempts.clear()
            self._site_calls.clear()
            self.injected.clear()

    def snapshot(self) -> dict[str, int]:
        """Injections so far, per site (sorted; the accounting view)."""
        with self._lock:
            return dict(sorted(self.injected.items()))

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def fresh(self) -> "FaultPlan":
        """A stateless copy with the same seed and specs (same verdicts)."""
        return FaultPlan(seed=self.seed, sites=dict(self.sites))

    def with_site(self, site: str, **spec_kwargs: Any) -> "FaultPlan":
        """A copy (stateless) with one site's spec added or replaced."""
        sites = dict(self.sites)
        base = sites.get(site, FaultSpec())
        sites[site] = replace(base, **spec_kwargs)
        return FaultPlan(seed=self.seed, sites=sites)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "sites": {s: spec.to_dict() for s, spec in sorted(self.sites.items())},
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(d.get("seed", 0)),
            sites={
                str(s): FaultSpec.from_dict(spec or {})
                for s, spec in dict(d.get("sites", {})).items()
            },
        )

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_plan(path: str | os.PathLike) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (the ``REPRO_FAULTS`` format)."""
    with open(path, encoding="utf-8") as fh:
        return FaultPlan.from_dict(json.load(fh))


# -- process-wide active plan --------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ENV_CHECKED = False
_STATE_LOCK = threading.Lock()


def get_fault_plan() -> FaultPlan | None:
    """The active plan (``None`` = injection off, the default).

    On first call, ``REPRO_FAULTS=<path.json>`` auto-installs a plan
    from disk — the hook the CI ``faults`` job uses to exercise every
    retry path on every push without touching test code.
    """
    global _ENV_CHECKED, _ACTIVE
    if _ACTIVE is None and not _ENV_CHECKED:
        with _STATE_LOCK:
            if _ACTIVE is None and not _ENV_CHECKED:
                _ENV_CHECKED = True
                path = os.environ.get("REPRO_FAULTS", "").strip()
                if path:
                    _ACTIVE = load_plan(path)
    return _ACTIVE


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _ACTIVE, _ENV_CHECKED
    with _STATE_LOCK:
        previous = _ACTIVE
        _ACTIVE = plan
        _ENV_CHECKED = True  # explicit set overrides the env hook
    return previous


def reset_fault_plan() -> None:
    """Drop any active plan and re-arm the ``REPRO_FAULTS`` env hook."""
    global _ACTIVE, _ENV_CHECKED
    with _STATE_LOCK:
        _ACTIVE = None
        _ENV_CHECKED = False


@contextlib.contextmanager
def fault_plan(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Scope a plan to a ``with`` block (restores the previous plan)."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def maybe_inject(site: str, key: Any = None) -> None:
    """The injection point: consult the active plan for this attempt.

    With no plan installed this is one ``None`` check.  With a plan, a
    negative verdict is free; a positive ``"error"`` verdict increments
    ``faults_injected_total``, emits a ``fault.injected`` event, and
    raises :class:`FaultInjected`; a ``"stall"`` verdict sleeps instead
    (the attempt then proceeds — slow, not broken).
    """
    plan = get_fault_plan()
    if plan is None:
        return
    fault = plan.should_fail(site, key)
    if fault is None:
        return
    from ..obs import get_recorder

    rec = get_recorder()
    rec.counter(
        "faults_injected_total", help="synthetic faults injected by the active FaultPlan"
    ).inc()
    rec.event(
        "fault.injected",
        level="warning",
        site=fault.site,
        key=fault.key,
        attempt=fault.attempt,
        mode=fault.mode,
    )
    if fault.mode == "stall":
        time.sleep(fault.stall_seconds)
        return
    raise FaultInjected(fault.site, fault.key, fault.attempt)
