"""The durable campaign job store: a replayed job journal + manifest.

The store is the service's source of truth — Balsam's first design rule
("a campaign is worth nothing if it dies with the submitting process").
Its files are the repo's one durable-file layer
(:mod:`repro.obs.journal`; the format is described once, in
ARCHITECTURE.md "Durable files"); what is specific to the store:

* **Manifest** (``manifest.json``): the store's identity — format tag
  ``repro-service/1``, creation wall time, seed, code version.
* **Job journal** (``jobs.jsonl``): every campaign submission, job
  creation, and state transition is one record of an
  :class:`~repro.obs.journal.AppendLog`, fsynced at commit-scope exit
  (:meth:`CampaignStore.batch`; ARCHITECTURE.md "Durable files" states
  what a process kill and what power loss can cost).  The current job
  table is *derived state*: opening a store replays the journal from
  the top, and a crash only ever loses a *suffix* of it.  Interior
  damage is not tolerated (:class:`StoreCorruptError`).
* **Single-writer exclusion** (``lock``): a writable store holds an
  advisory ``flock`` on a lockfile for its whole lifetime, so a second
  writer (two ``python -m repro.service work`` invocations, say) fails
  fast with :class:`StoreLockedError` instead of interleaving replayed
  job tables and corrupting the journal.  The lock is released by
  :meth:`CampaignStore.close` and by the OS when the holder dies —
  a crashed worker never wedges its store.  Read-only opens
  (``CampaignStore.open(..., readonly=True)``) take no lock and never
  write, so ``status``/``ls``/``pack`` stay available while a worker
  drains.
* **Crash recovery** (:meth:`CampaignStore.recover`): jobs a dead
  worker stranded mid-lifecycle are rolled back to ``CREATED`` with an
  explicit ``recovery=True`` transition record, so a resumed worker
  sees the same pending set an uninterrupted run would have processed
  — and the journal says the rollback happened.  Jobs the crash caught
  *between* the ``FAILED`` append and its resolution are resolved the
  way the dead worker would have: requeued while the budget lasts,
  dead-lettered otherwise.
* **Crash-atomic submission**: ``campaign.create`` journals the
  campaign's job count, so a crash mid-submission is detected on the
  next writable open and the partial campaign is discarded (journaled
  as ``campaign.discard``) — resubmitting it then succeeds.

Record kinds (unknown kinds are preserved on replay, the same
forward-compatibility contract as the run journal):

===================  ========================================================
``campaign.create``   one submitted campaign (name, seed, job count)
``job.create``        one job's immutable spec (id, kind, params, estimates)
``job.transition``    one state-machine edge (from, to, attempts, error, ...)
``job.dead_letter``   terminal failure after the requeue budget ran out
``campaign.discard``  a partial submission (crash mid-submit) swept on open
===================  ========================================================

Time never comes from a wall-clock call inside this module (rule
RPR003 covers ``repro.service``): the store takes an injectable
``clock`` and defaults to :data:`time.time` *by reference*, so
deterministic tests can freeze it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator, TextIO

try:  # advisory single-writer locking (POSIX; absent e.g. on Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..faults import DeadLetterBox
from ..obs import get_recorder
from ..obs.journal import (
    AppendLog,
    atomic_write_json,
    config_hash,
    detect_code_version,
    read_records,
)
from .states import IN_FLIGHT_STATES, JobState, validate_transition

__all__ = [
    "JOBS_FILE",
    "LOCK_FILE",
    "MANIFEST_FILE",
    "STORE_FORMAT",
    "CampaignInfo",
    "CampaignStore",
    "IllegalDeadLetter",
    "JobRecord",
    "JobSpec",
    "StoreCorruptError",
    "StoreLockedError",
    "StoreManifest",
]

MANIFEST_FILE = "manifest.json"
JOBS_FILE = "jobs.jsonl"
LOCK_FILE = "lock"

#: Store format tag written into every manifest.
STORE_FORMAT = "repro-service/1"


class StoreCorruptError(RuntimeError):
    """The job journal encodes something replay cannot honour.

    Torn final lines are *not* corruption (they are recovered); this is
    raised for interior damage — an unparseable line in the middle of
    the journal, a transition for an unknown job, or an edge the state
    machine forbids.
    """


class StoreLockedError(RuntimeError):
    """Another process holds this store open for writing.

    A campaign store admits exactly one writer at a time (advisory
    ``flock`` on the store's ``lock`` file); concurrent writers would
    each replay their own job table and append conflicting transitions,
    corrupting the journal.  Open read-only (``readonly=True``, what the
    ``status``/``ls``/``pack`` CLI commands do) to inspect a store that
    a worker is draining.
    """


@dataclass(frozen=True)
class JobSpec:
    """What a submitter asks for: one job's immutable description.

    ``kind`` names a registered payload (see
    :mod:`repro.service.worker`); ``params`` are its JSON-serializable
    arguments.  ``n_nodes`` and ``wall_estimate`` feed the packer
    (node-width × wall-time rectangles); estimate walls with the
    calibrated cost model (:func:`repro.service.packer.estimate_center_job`).
    """

    name: str
    kind: str = "noop"
    params: dict[str, Any] = field(default_factory=dict)
    n_nodes: int = 1
    wall_estimate: float = 1.0
    max_requeues: int = 1

    def __post_init__(self) -> None:
        # canonical numerics: replay reads these back through int()/float(),
        # so the live record must hold the same types or fingerprint()
        # would tell wall_estimate=10 from 10.0 across a reopen
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "wall_estimate", float(self.wall_estimate))
        object.__setattr__(self, "max_requeues", int(self.max_requeues))
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.wall_estimate <= 0:
            raise ValueError("wall_estimate must be positive")
        if self.max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")


@dataclass
class JobRecord:
    """One job's current (replayed) state plus its immutable spec."""

    id: str
    campaign: str
    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    n_nodes: int = 1
    wall_estimate: float = 1.0
    max_requeues: int = 1
    state: JobState = JobState.CREATED
    attempts: int = 0
    error: str | None = None
    result: dict[str, Any] | None = None
    dead_lettered: bool = False
    #: full lifecycle trail: ``(state, wall_seconds)`` per transition,
    #: starting with the ``CREATED`` stamp.
    history: list[tuple[str, float]] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state is JobState.JOB_FINISHED

    @property
    def pending(self) -> bool:
        return self.state is JobState.CREATED

    def spec_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "campaign": self.campaign,
            "name": self.name,
            "kind": self.kind,
            "params": self.params,
            "n_nodes": self.n_nodes,
            "wall_estimate": self.wall_estimate,
            "max_requeues": self.max_requeues,
        }


@dataclass
class CampaignInfo:
    """One submitted campaign (a named group of jobs).

    ``expected_jobs`` is the job count journaled in ``campaign.create``;
    replay compares it against the ``job.create`` records that actually
    follow to detect submissions a crash cut short (``None`` for
    journals written before the count existed).
    """

    name: str
    seed: int = 0
    created: float = 0.0
    job_ids: list[str] = field(default_factory=list)
    expected_jobs: int | None = None


@dataclass
class StoreManifest:
    """The store's identity card (``manifest.json``)."""

    created: float = 0.0
    seed: int = 0
    code_version: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "created": self.created,
            "seed": self.seed,
            "code_version": self.code_version,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "StoreManifest":
        fmt = d.get("format")
        if fmt != STORE_FORMAT:
            raise StoreCorruptError(
                f"not a campaign store manifest: format={fmt!r} (expected {STORE_FORMAT!r})"
            )
        return cls(
            created=float(d.get("created", 0.0)),
            seed=int(d.get("seed", 0)),
            code_version=str(d.get("code_version", "")),
            extra=dict(d.get("extra") or {}),
        )

    def save(self, path: str | os.PathLike[str]) -> str:
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "StoreManifest":
        with open(os.fspath(path), encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class CampaignStore:
    """Durable, multi-tenant job store under one directory.

    Use :meth:`create` for a fresh store and :meth:`open` to resume an
    existing one (torn tail recovered first, journal replayed into the
    in-memory job table).  A writable store holds the single-writer
    ``flock`` for its lifetime (:class:`StoreLockedError` on
    contention); ``readonly=True`` opens take no lock and reject writes.
    Mutations are thread-safe: validate + journal append + in-memory
    apply happen under one reentrant lock, so two threads can never
    both depart the same replayed state.  Each record gets the next
    ``seq``; when it is fsynced is :meth:`batch`'s business.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        manifest: StoreManifest,
        clock: Callable[[], float] | None = None,
        readonly: bool = False,
    ) -> None:
        self.directory = os.fspath(directory)
        self.manifest = manifest
        self.readonly = bool(readonly)
        # injectable clock (RPR003: no wall-clock calls in service code);
        # time.time is referenced, never called here
        self._clock = time.time if clock is None else clock
        # reentrant: transition() holds it across validate+append+apply
        # while _append takes it again for the journal write
        self._lock = threading.RLock()
        self.jobs: dict[str, JobRecord] = {}
        self.campaigns: dict[str, CampaignInfo] = {}
        self.dead_letter = DeadLetterBox("service")
        #: torn-tail bytes dropped when this store was opened
        self.recovered_bytes = 0
        self._closed = False
        self._log: AppendLog | None = None
        self._lock_fh: TextIO | None = None
        if self.readonly:
            # must not write: a torn tail stays in place, the reader drops it
            records, _, corrupt = read_records(self.jobs_path)
        else:
            self._lock_fh = _acquire_writer_lock(self.directory)
            self._log, records, corrupt = AppendLog.reopen(self.jobs_path, fsync_each=True)
            self.recovered_bytes = self._log.recovered_bytes
        try:
            if corrupt:
                raise StoreCorruptError(
                    f"{self.jobs_path}: unparseable interior record at line {corrupt[0]}"
                )
            for rec in records:
                self._apply(rec)
            self._discard_partial_campaigns()
        except BaseException:
            self.close()  # a store that fails to replay must not keep the lock
            raise

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | os.PathLike[str],
        seed: int = 0,
        extra: dict[str, Any] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> "CampaignStore":
        """Create a fresh store directory (fails if one already exists)."""
        directory = Path(os.fspath(root))
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / MANIFEST_FILE).exists():
            raise FileExistsError(f"{directory}: already a campaign store")
        wall = (time.time if clock is None else clock)()
        manifest = StoreManifest(
            created=wall,
            seed=int(seed),
            code_version=detect_code_version(),
            extra=dict(extra or {}),
        )
        manifest.save(directory / MANIFEST_FILE)
        store = cls(directory, manifest, clock=clock)
        get_recorder().event("service.store_created", store=str(directory), seed=seed)
        return store

    @classmethod
    def open(
        cls,
        root: str | os.PathLike[str],
        clock: Callable[[], float] | None = None,
        readonly: bool = False,
    ) -> "CampaignStore":
        """Open an existing store: recover the tail, replay the journal.

        ``readonly=True`` skips the single-writer lock and never touches
        the journal file — torn tails are ignored (not truncated) and
        partial submissions are dropped from the view without being
        journaled as discarded — so a store a live worker is draining
        stays inspectable.
        """
        directory = Path(os.fspath(root))
        manifest_path = directory / MANIFEST_FILE
        if not manifest_path.is_file():
            raise FileNotFoundError(f"{directory}: no campaign store here ({MANIFEST_FILE})")
        store = cls(directory, StoreManifest.load(manifest_path), clock=clock, readonly=readonly)
        if store.recovered_bytes:
            get_recorder().event(
                "service.store_tail_recovered",
                level="warning",
                store=str(directory),
                dropped_bytes=store.recovered_bytes,
            )
        return store

    # -- paths -----------------------------------------------------------------

    @property
    def jobs_path(self) -> str:
        return os.path.join(self.directory, JOBS_FILE)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_FILE)

    @property
    def products_dir(self) -> str:
        """Where workers drop per-job products (created on demand)."""
        return os.path.join(self.directory, "products")

    @property
    def lock_path(self) -> str:
        """The single-writer advisory lockfile."""
        return os.path.join(self.directory, LOCK_FILE)

    # -- journal ---------------------------------------------------------------

    def batch(self) -> ContextManager[None]:
        """Commit scope — one ``fsync`` for all it journals (ARCHITECTURE.md "Durable files")."""
        return nullcontext() if self._log is None else self._log.batch()

    def _append(self, record: dict[str, Any]) -> int:
        """Journal one record (adds ``seq`` + ``wall``; fsync: :meth:`batch`); returns its seq."""
        with self._lock:  # wall stamps are taken in seq order
            if self._log is None:
                raise RuntimeError("store is read-only")
            seq = self._log.append({"wall": self._clock(), **record})
            if seq < 0:
                raise RuntimeError("store is closed")
            return seq

    def _apply(self, record: dict[str, Any]) -> None:
        """Replay one journal record into the in-memory tables."""
        kind = record.get("kind")
        wall = float(record.get("wall", 0.0))
        if kind == "campaign.create":
            name = str(record["campaign"])
            expected = record.get("jobs")
            self.campaigns[name] = CampaignInfo(
                name=name,
                seed=int(record.get("seed", 0)),
                created=wall,
                expected_jobs=None if expected is None else int(expected),
            )
        elif kind == "job.create":
            spec = dict(record.get("job") or {})
            job = JobRecord(
                id=str(spec["id"]),
                campaign=str(spec["campaign"]),
                name=str(spec.get("name", spec["id"])),
                kind=str(spec.get("kind", "noop")),
                params=dict(spec.get("params") or {}),
                n_nodes=int(spec.get("n_nodes", 1)),
                wall_estimate=float(spec.get("wall_estimate", 1.0)),
                max_requeues=int(spec.get("max_requeues", 1)),
                history=[(JobState.CREATED.value, wall)],
            )
            if job.id in self.jobs:
                raise StoreCorruptError(f"duplicate job.create for {job.id!r}")
            if job.campaign not in self.campaigns:
                raise StoreCorruptError(
                    f"job.create for {job.id!r} references unknown campaign "
                    f"{job.campaign!r}"
                )
            self.jobs[job.id] = job
            self.campaigns[job.campaign].job_ids.append(job.id)
        elif kind == "job.transition":
            job = self._job(record)
            dst = JobState(str(record["to"]))
            src = JobState(str(record["from"]))
            if src is not job.state:
                raise StoreCorruptError(
                    f"transition for {job.id!r} departs from {src} but the "
                    f"replayed state is {job.state}"
                )
            validate_transition(
                src, dst, job_id=job.id, recovery=bool(record.get("recovery"))
            )
            job.state = dst
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = record.get("error")
            if record.get("result") is not None:
                job.result = dict(record["result"])
            job.history.append((dst.value, wall))
        elif kind == "job.dead_letter":
            job = self._job(record)
            job.dead_lettered = True
            self.dead_letter.add(
                job.id,
                str(record.get("reason", "requeue budget exhausted")),
                attempts=int(record.get("attempts", job.attempts)),
            )
        elif kind == "campaign.discard":
            name = str(record["campaign"])
            info = self.campaigns.pop(name, None)
            if info is None:
                raise StoreCorruptError(
                    f"campaign.discard for unknown campaign {name!r}"
                )
            for job_id in info.job_ids:
                self.jobs.pop(job_id, None)
        # unknown kinds: preserved silently (forward compatibility)

    def _discard_partial_campaigns(self) -> list[str]:
        """Sweep campaigns a crash cut short mid-submission.

        A campaign whose replayed ``job.create`` count disagrees with
        the count journaled in ``campaign.create`` was torn by a crash
        between those records.  Writable opens journal a
        ``campaign.discard`` so the sweep is durable and the name can be
        resubmitted; readonly opens only hide it from the view (it may
        be a live writer mid-submission, not a crash).
        """
        partial = [
            info.name
            for info in self.campaigns.values()
            if info.expected_jobs is not None
            and len(info.job_ids) != info.expected_jobs
        ]
        for name in partial:
            record = {
                "kind": "campaign.discard",
                "campaign": name,
                "reason": "partial submission",
            }
            if not self.readonly:
                self._append(record)
            self._apply(record)
        if partial and not self.readonly:
            get_recorder().event(
                "service.partial_campaigns_discarded",
                level="warning",
                store=self.directory,
                campaigns=partial,
            )
        return partial

    def _job(self, record: dict[str, Any]) -> JobRecord:
        job_id = str(record.get("job"))
        job = self.jobs.get(job_id)
        if job is None:
            raise StoreCorruptError(f"record references unknown job {job_id!r}")
        return job

    # -- submission ------------------------------------------------------------

    def submit_campaign(
        self, name: str, specs: list[JobSpec], seed: int = 0
    ) -> list[JobRecord]:
        """Submit a named campaign of jobs; returns the created records.

        Job ids are deterministic (``<campaign>.<index>``), so a seeded
        submission replays identically — the property the packer- and
        resume-determinism tests lean on.  The ``campaign.create``
        record journals the job count up front, so a crash mid-loop is
        detected (and the partial campaign discarded) on the next open.
        """
        if not name or "/" in name or name != name.strip():
            raise ValueError(f"invalid campaign name {name!r}")
        if not specs:
            raise ValueError("a campaign needs at least one job")
        rec = get_recorder()
        with self._lock, self.batch():
            if name in self.campaigns:
                raise ValueError(f"campaign {name!r} already submitted")
            self._append(
                {
                    "kind": "campaign.create",
                    "campaign": name,
                    "seed": int(seed),
                    "jobs": len(specs),
                }
            )
            wall = self._clock()
            self.campaigns[name] = CampaignInfo(
                name=name, seed=int(seed), created=wall, expected_jobs=len(specs)
            )
            created: list[JobRecord] = []
            for i, spec in enumerate(specs):
                job = JobRecord(
                    id=f"{name}.{i:05d}",
                    campaign=name,
                    name=spec.name,
                    kind=spec.kind,
                    params=dict(spec.params),
                    n_nodes=spec.n_nodes,
                    wall_estimate=spec.wall_estimate,
                    max_requeues=spec.max_requeues,
                    history=[(JobState.CREATED.value, wall)],
                )
                self._append({"kind": "job.create", "job": job.spec_dict()})
                self.jobs[job.id] = job
                self.campaigns[name].job_ids.append(job.id)
                created.append(job)
        rec.event(
            "service.campaign_submitted", campaign=name, jobs=len(created), seed=seed
        )
        return created

    # -- transitions -----------------------------------------------------------

    def transition(
        self,
        job_id: str,
        dst: JobState,
        error: str | None = None,
        result: dict[str, Any] | None = None,
        recovery: bool = False,
    ) -> JobRecord:
        """Move one job along a legal edge, journaled before applied.

        Raises :class:`~repro.service.states.IllegalTransition` for a
        forbidden edge *before* anything touches disk, so an illegal
        call can never corrupt the store.  Validate, append, and apply
        happen under the store lock, so concurrent threads can never
        both journal a departure from the same state.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            src = job.state
            validate_transition(src, dst, job_id=job_id, recovery=recovery)
            # `attempts` counts lifecycle *failures* (FAILED entries), so a
            # stage-in failure consumes requeue budget exactly like a
            # payload failure — no free infinite FAILED→CREATED loops
            attempts = job.attempts + 1 if dst is JobState.FAILED else job.attempts
            record: dict[str, Any] = {
                "kind": "job.transition",
                "job": job_id,
                "from": src.value,
                "to": dst.value,
                "attempts": attempts,
            }
            if error is not None:
                record["error"] = error
            if result is not None:
                record["result"] = result
            if recovery:
                record["recovery"] = True
            self._append(record)
            job.state = dst
            job.attempts = attempts
            job.error = error
            if result is not None:
                job.result = dict(result)
            job.history.append((dst.value, self._clock()))
        get_recorder().event(
            "service.transition",
            job=job_id,
            src=src.value,
            dst=dst.value,
            recovery=recovery,
        )
        return job

    def mark_dead_letter(self, job_id: str, reason: str) -> JobRecord:
        """Record a terminal failure (requeue budget exhausted).

        The job stays ``FAILED``; the journal gains a ``job.dead_letter``
        record and the store's :class:`~repro.faults.DeadLetterBox`
        (source ``"service"``) gains an entry — the same bounded sink
        the scheduler and exec engine use.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.state is not JobState.FAILED:
                raise IllegalDeadLetter(job_id, job.state)
            self._append(
                {
                    "kind": "job.dead_letter",
                    "job": job_id,
                    "reason": reason,
                    "attempts": job.attempts,
                }
            )
            job.dead_lettered = True
            self.dead_letter.add(job_id, reason, attempts=job.attempts)
        return job

    # -- recovery --------------------------------------------------------------

    def recover(self) -> list[str]:
        """Resolve every job a dead worker left in a non-pending state.

        A worker that died mid-lifecycle leaves jobs in an in-flight
        state (``STAGED_IN`` .. ``POSTPROCESSED``).  Each is rolled back
        to ``CREATED`` with an explicit ``recovery=True`` transition, so
        the resumed pending set is exactly what an uninterrupted worker
        would still have had to process.

        A crash can also land *between* a ``FAILED`` append and its
        resolution (requeue or dead-letter) — leaving the job ``FAILED``
        but not dead-lettered, a state no live worker ever abandons.
        Recovery finishes what the dead worker started: requeue
        (``FAILED -> CREATED``) while ``attempts`` is within the
        ``max_requeues`` budget, dead-letter otherwise — so the store
        can always reach :attr:`done`.

        Also unlinks the product temp files a killed worker stranded.
        Returns the job ids re-queued to ``CREATED`` (rollbacks and
        requeues both; dead-lettered jobs are terminal, not pending).
        """
        rolled: list[str] = []
        dead: list[str] = []
        with self.batch():  # idempotent rollbacks: one flush for all of them
            for job in list(self.jobs.values()):
                if job.state in IN_FLIGHT_STATES:
                    self.transition(job.id, JobState.CREATED, recovery=True)
                    rolled.append(job.id)
                elif job.state is JobState.FAILED and not job.dead_lettered:
                    if self.dead_letter.failed(
                        job.id, job.attempts, job.max_requeues, job.error or "failed", recovery=True
                    ):
                        self.transition(
                            job.id, JobState.CREATED, error=job.error, recovery=True
                        )
                        rolled.append(job.id)
                    else:
                        reason = (
                            f"requeue budget exhausted after {job.attempts} attempts"
                            " (resolved during recovery)"
                        )
                        if job.error:
                            reason += f": {job.error}"
                        self.mark_dead_letter(job.id, reason)
                        dead.append(job.id)
        temps: list[str] = []
        if not self.readonly and os.path.isdir(self.products_dir):
            # <id>.json.tmp.<pid>: a worker killed between the temp write and os.replace
            temps = [n for n in os.listdir(self.products_dir) if n.rpartition(".tmp.")[2].isdigit()]
        for name in temps:
            os.unlink(os.path.join(self.products_dir, name))
        if rolled or dead or temps:
            get_recorder().event(
                "service.recovered",
                level="warning",
                jobs=len(rolled),
                ids=rolled,
                dead_lettered=dead,
                product_temps=len(temps),
            )
        return rolled

    # -- queries ---------------------------------------------------------------

    def pending(self, campaign: str | None = None) -> list[JobRecord]:
        """``CREATED`` jobs in submission order (the worker's pull queue)."""
        return [
            j
            for j in self.jobs.values()
            if j.pending and (campaign is None or j.campaign == campaign)
        ]

    def iter_jobs(
        self, campaign: str | None = None, state: JobState | None = None
    ) -> Iterator[JobRecord]:
        for job in self.jobs.values():
            if campaign is not None and job.campaign != campaign:
                continue
            if state is not None and job.state is not state:
                continue
            yield job

    def status(self) -> dict[str, dict[str, int]]:
        """Per-campaign state counts (the ``repro.service status`` view)."""
        out: dict[str, dict[str, int]] = {}
        for name, info in self.campaigns.items():
            counts: dict[str, int] = {}
            for job_id in info.job_ids:
                state = self.jobs[job_id].state.value
                counts[state] = counts.get(state, 0) + 1
            out[name] = counts
        return out

    @property
    def done(self) -> bool:
        """Every job terminal: finished, or failed with no requeue budget."""
        return all(
            j.finished or (j.state is JobState.FAILED and j.dead_lettered)
            for j in self.jobs.values()
        )

    def fingerprint(self) -> str:
        """Deterministic digest of every job's spec + result (no walls).

        Two stores whose campaigns produced identical outcomes — e.g. an
        uninterrupted run versus a killed-and-resumed one — have equal
        fingerprints; anything timing-dependent is projected away.
        """
        view = [
            {
                "spec": j.spec_dict(),
                "state": j.state.value,
                "result": j.result,
                "dead_lettered": j.dead_lettered,
            }
            for j in sorted(self.jobs.values(), key=lambda j: j.id)
        ]
        return config_hash({"jobs": view})

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush + close the journal and release the single-writer lock."""
        with self._lock:
            try:
                if self._log is not None:
                    self._log.close()
            finally:  # a failed last fsync must not keep the writer lock
                if self._lock_fh is not None and not self._lock_fh.closed:
                    # closing the fd drops the flock; no unlink (another
                    # writer may be racing to take the lock on the same path)
                    self._lock_fh.close()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class IllegalDeadLetter(ValueError):
    """Dead-lettering is only legal from ``FAILED``."""

    def __init__(self, job_id: str, state: JobState) -> None:
        super().__init__(
            f"job {job_id!r} cannot be dead-lettered from {state} (only from FAILED)"
        )
        self.job_id = job_id
        self.state = state


def _acquire_writer_lock(directory: str) -> TextIO:
    """Take the store's advisory single-writer lock (non-blocking).

    The lock lives as long as the returned file handle: released by
    :meth:`CampaignStore.close`, or by the OS when the holding process
    dies — which is why a hard-killed worker never wedges its store.
    """
    path = os.path.join(directory, LOCK_FILE)
    fh = open(path, "a", encoding="utf-8")
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        return fh
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        fh.close()
        raise StoreLockedError(
            f"{directory}: another process holds this campaign store open "
            "for writing (one writer at a time; open readonly=True to "
            "inspect, or wait for the other writer to finish)"
        ) from None
    return fh
