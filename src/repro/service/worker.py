"""The pull-based service worker: Balsam's launcher loop for this repo.

A worker never receives work — it *pulls* from the
:class:`~repro.service.store.CampaignStore` (the Balsam launcher
pattern: launchers on the allocation drain the database, the database
never pushes).  Each claimed job is driven through the full lifecycle,
journaling every edge::

    CREATED -> STAGED_IN -> PREPROCESSED -> RUNNING -> RUN_DONE
            -> POSTPROCESSED -> JOB_FINISHED

* **stage-in** resolves the job's inputs (e.g. checks a Level 2 path
  exists);
* **preprocess** materializes the payload arguments;
* **run** executes the registered payload under the shared
  :class:`~repro.faults.RetryPolicy`, with ``"service.job"`` fault
  injection per attempt — the same deterministic failure drills every
  other hop gets;
* **postprocess** writes the job's product atomically into the store's
  ``products/`` directory (temp file + ``os.replace``), so a crash
  never leaves a torn product.

A job whose payload exhausts its retries transitions to ``FAILED`` and
is requeued (``FAILED -> CREATED``) while its ``max_requeues`` budget
lasts; after that it is dead-lettered through the store and the
campaign continues without it — graceful degradation, exactly like the
combined driver's missing-snapshot handling.

**Crash drill hook**: ``crash_after_transitions=N`` hard-kills the
process (``os._exit``) after the worker has driven N state transitions
— deliberately *mid-lifecycle*, between a journal append and the job's
completion.  The resume drill in ``docs/service.md``,
``examples/campaign_service.py``, and the service test suite use it to
prove that a killed campaign resumes to a bit-identical outcome.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable

import numpy as np

from ..faults import RetryPolicy, maybe_inject, resolve_retry
from ..obs import get_recorder
from .states import JobState
from .store import CampaignStore, JobRecord

__all__ = [
    "PAYLOADS",
    "PayloadFn",
    "ServiceWorker",
    "payload_digest",
    "register_payload",
    "run_payload",
]

#: A payload implementation: JSON-able params in, JSON-able result out.
PayloadFn = Callable[[dict[str, Any]], dict[str, Any]]

#: Registered payload kinds: name -> callable(params) -> JSON-able dict.
PAYLOADS: dict[str, PayloadFn] = {}


def register_payload(kind: str) -> Callable[[PayloadFn], PayloadFn]:
    """Register a payload implementation under ``kind`` (decorator)."""

    def wrap(fn: PayloadFn) -> PayloadFn:
        PAYLOADS[kind] = fn
        return fn

    return wrap


def run_payload(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """Execute one registered payload (KeyError for unknown kinds)."""
    try:
        fn = PAYLOADS[kind]
    except KeyError:
        raise KeyError(
            f"unknown payload kind {kind!r} (registered: {sorted(PAYLOADS)})"
        ) from None
    return fn(dict(params))


def payload_digest(payload: dict[str, Any]) -> str:
    """Stable SHA-256 over a JSON-able result (sorted keys, short hex)."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- built-in payloads ---------------------------------------------------------


@register_payload("noop")
def _noop_payload(params: dict[str, Any]) -> dict[str, Any]:
    """Identity payload: echoes its params (queueing/packing drills)."""
    return {"ok": True, "echo": params}


@register_payload("fail")
def _fail_payload(params: dict[str, Any]) -> dict[str, Any]:
    """Always-failing payload (dead-letter drills)."""
    raise RuntimeError(str(params.get("reason", "synthetic payload failure")))


@register_payload("synthetic_centers")
def _synthetic_centers_payload(params: dict[str, Any]) -> dict[str, Any]:
    """A real (small) center-finding job over a seeded particle set.

    Generates clustered blobs + background from ``seed`` alone, runs
    periodic grid FOF and MBP center finding, and returns a
    deterministic summary — the unit of work the campaign-level
    bit-identity drills compare across kill/resume boundaries.

    Params: ``seed`` (required), ``n_blobs`` (default 4), ``n_per_blob``
    (default 160), ``n_background`` (default 600), ``box`` (default
    20.0), ``linking_length`` (default 0.4), ``min_count`` (default 20).
    """
    from ..analysis.centers import halo_centers
    from ..analysis.fof import fof_grid

    seed = int(params["seed"])
    n_blobs = int(params.get("n_blobs", 4))
    n_per_blob = int(params.get("n_per_blob", 160))
    n_background = int(params.get("n_background", 600))
    box = float(params.get("box", 20.0))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15 * box, 0.85 * box, (n_blobs, 3))
    blobs = [rng.normal(c, 0.25, (n_per_blob, 3)) for c in centers]
    background = rng.uniform(0.0, box, (n_background, 3))
    pos = np.mod(np.concatenate([*blobs, background]), box)
    tags = np.arange(len(pos), dtype=np.int64)

    fof = fof_grid(
        pos,
        float(params.get("linking_length", 0.4)),
        tags=tags,
        min_count=int(params.get("min_count", 20)),
        box=box,
    )
    res = halo_centers(pos, tags, fof.labels)
    result = {
        "particles": int(len(pos)),
        "halos": int(res.halo_tags.size),
        "largest_halo": int(fof.halo_counts.max()) if fof.halo_counts.size else 0,
        "center_sum": [round(float(v), 9) for v in np.sort(res.centers, axis=0).sum(axis=0)]
        if res.centers.size
        else [0.0, 0.0, 0.0],
    }
    result["digest"] = payload_digest(result)
    return result


@register_payload("offline_centers")
def _offline_centers_payload(params: dict[str, Any]) -> dict[str, Any]:
    """One off-line center job over an existing Level 2 file.

    Params: ``path`` (required), plus the usual
    :func:`repro.core.driver.offline_center_job` knobs (``workers``,
    ``block``).
    """
    from ..core.driver import offline_center_job

    catalog = offline_center_job(
        params["path"],
        block=params.get("block"),
        workers=params.get("workers"),
    )
    result = {
        "path": str(params["path"]),
        "halos": int(len(catalog)),
        "total_count": int(catalog["count"].sum()) if len(catalog) else 0,
    }
    result["digest"] = payload_digest(result)
    return result


# -- the worker loop -----------------------------------------------------------


class ServiceWorker:
    """Drains a campaign store through the job lifecycle.

    Parameters
    ----------
    store:
        The (open) campaign store to pull from.
    retry:
        Per-attempt policy for the ``run`` phase (``None`` → the
        tree-wide default of 3 attempts).  Distinct from the *requeue*
        budget: retries happen inside one ``RUNNING`` visit; requeues
        are journaled ``FAILED -> CREATED`` round trips.
    crash_after_transitions:
        Drill hook — hard-kill the process (``os._exit(2)``) after this
        many worker-driven transitions.  ``None`` (default) disables.
    """

    #: exit code of a drill-induced hard kill (distinct from error exits)
    CRASH_EXIT_CODE = 2

    def __init__(
        self,
        store: CampaignStore,
        retry: RetryPolicy | None = None,
        crash_after_transitions: int | None = None,
    ) -> None:
        self.store = store
        self.retry = resolve_retry(retry)
        self.crash_after_transitions = crash_after_transitions
        self._transitions = 0
        self._products_ready = False

    # -- lifecycle plumbing ----------------------------------------------------

    def _step(self, job: JobRecord, dst: JobState, **kwargs: Any) -> None:
        """One journaled transition, honouring the crash drill hook."""
        self.store.transition(job.id, dst, **kwargs)
        self._transitions += 1
        if (
            self.crash_after_transitions is not None
            and self._transitions >= self.crash_after_transitions
        ):
            # the drill: die hard, mid-lifecycle, without flushing
            # anything beyond what the store already journaled
            get_recorder().event(
                "service.drill_crash",
                level="warning",
                job=job.id,
                transitions=self._transitions,
            )
            os._exit(self.CRASH_EXIT_CODE)

    def _run_attempt(self, job: JobRecord) -> dict[str, Any]:
        """One payload attempt (the unit the retry policy repeats)."""
        maybe_inject("service.job", key=job.id)
        return run_payload(job.kind, job.params)

    # -- one job ---------------------------------------------------------------

    def run_job(self, job: JobRecord) -> bool:
        """Drive one pending job to ``JOB_FINISHED`` (or ``FAILED``).

        Returns ``True`` when the job finished.  On failure the job is
        requeued while its budget lasts, then dead-lettered; either way
        the worker survives — one bad job never stops the campaign.
        """
        rec = get_recorder()
        # the commit scope sits outside the try: a failed fsync is not a job failure
        with rec.span(
            "service.job", job=job.id, kind=job.kind, campaign=job.campaign
        ), self.store.batch():
            try:
                with rec.span("service.stage_in", job=job.id):
                    self._stage_in(job)
                    self._step(job, JobState.STAGED_IN)
                with rec.span("service.preprocess", job=job.id):
                    self._step(job, JobState.PREPROCESSED)
                self._step(job, JobState.RUNNING)
                with rec.span("service.run", job=job.id, kind=job.kind):
                    outcome = self.retry.run(
                        self._run_attempt, job, site="service.job", key=job.id
                    )
                result = dict(outcome.value or {})
                self._step(job, JobState.RUN_DONE, result=result)
                with rec.span("service.postprocess", job=job.id):
                    self._write_product(job, result)
                    self._step(job, JobState.POSTPROCESSED)
                self._step(job, JobState.JOB_FINISHED)
            except Exception as exc:  # repro: noqa[RPR006] - the ladder's
                # failed() emits service.job_failed once FAILED is journaled
                self._resolve_failure(job, f"{type(exc).__name__}: {exc}")
                return False
        return True

    def _stage_in(self, job: JobRecord) -> None:
        """Validate the job's inputs before any state moves."""
        path = job.params.get("path")
        if path is not None and not os.path.exists(os.fspath(path)):
            raise FileNotFoundError(f"job {job.id!r}: input {path!r} does not exist")
        if job.kind not in PAYLOADS:
            raise KeyError(f"job {job.id!r}: unknown payload kind {job.kind!r}")

    def _write_product(self, job: JobRecord, result: dict[str, Any]) -> str:
        """Atomic product drop: ``products/<job id>.json``."""
        if not self._products_ready:  # once per worker, not per job
            os.makedirs(self.store.products_dir, exist_ok=True)
            self._products_ready = True
        path = os.path.join(self.store.products_dir, f"{job.id}.json")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"job": job.id, "result": result}, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    def _resolve_failure(self, job: JobRecord, error: str) -> None:
        """FAILED, then requeue-or-dead-letter; the worker survives."""
        self._step(job, JobState.FAILED, error=error)
        if self.store.dead_letter.failed(job.id, job.attempts, job.max_requeues, error):
            self._step(job, JobState.CREATED, error=error)
        else:
            self.store.mark_dead_letter(
                job.id, f"requeue budget exhausted after {job.attempts} attempts: {error}"
            )

    # -- the pull loop ---------------------------------------------------------

    def drain(
        self,
        max_jobs: int | None = None,
        job_ids: list[str] | None = None,
        campaign: str | None = None,
    ) -> int:
        """Pull pending jobs (in submission order) until none remain.

        ``job_ids`` restricts the pull to one packed allocation's jobs;
        ``campaign`` to one tenant.  Requeued jobs re-enter the pending
        set and are picked up by the same drain.  Returns the number of
        jobs that reached ``JOB_FINISHED``.
        """
        rec = get_recorder()
        allowed = None if job_ids is None else set(job_ids)
        finished = 0
        processed = 0
        with rec.span("service.drain", campaign=campaign):
            while True:
                batch = [
                    j
                    for j in self.store.pending(campaign=campaign)
                    if allowed is None or j.id in allowed
                ]
                if not batch:
                    break
                for job in batch:
                    if max_jobs is not None and processed >= max_jobs:
                        return finished
                    processed += 1
                    if self.run_job(job):
                        finished += 1
        return finished
