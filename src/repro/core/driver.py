"""Live workflow driver: execute the full combined pipeline for real.

Unlike :mod:`repro.core.strategies` (which *prices* workflows at paper
scale through the cost model), this module actually runs everything at
mini-HACC scale on the local machine:

1. run the simulation with CosmoTools in-situ analysis (halos, centers
   below the threshold, Level 2 products handed off);
2. a :class:`~repro.machines.listener.Listener` watches the hand-off and
   fires the off-line analysis job per snapshot (the co-scheduling
   path), or the off-line pass runs after the simulation (the simple
   path);
3. the off-line job reads the Level 2 blocks, finds the MBP centers of
   the off-loaded halos, and writes its own catalog;
4. the in-situ and off-line catalogs are merged into the final Level 3
   product.

*When* the off-line leg runs (simple / co-scheduled) and *where* Level 2
goes are independent choices.  The hand-off is a Level 2 device
(:mod:`repro.machines.staging`): a spool directory of GenericIO files,
or — the paper's in-transit variant — a staging area passed in its
place.  The same writer, listener, off-line job, failure ladder and
merge serve both; only the device differs.

This is the code path the integration tests and examples exercise; its
outputs are bit-identical between the simple and co-scheduled variants
and between the two hand-offs, and match a full in-situ run with
threshold infinity — the workflow correctness property the paper relies
on.

Failure model (see ``docs/failures.md``): every off-line center job
runs under the listener's :class:`~repro.faults.RetryPolicy` (with
``"offline.job"`` fault injection per attempt).  A snapshot whose job
exhausts its retries does **not** abort the campaign — the run
completes with the in-situ leg of the catalog, ``degraded=True``, and
a :class:`~repro.core.accounting.FailureRecord` per missing snapshot,
so a degraded Level 3 product always states exactly what is absent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..analysis.centers import halo_centers
from ..faults import RetryPolicy, maybe_inject
from ..insitu.algorithms import (
    HaloCenterAlgorithm,
    HaloFinderAlgorithm,
    Level2WriterAlgorithm,
)
from ..insitu.manager import InSituAnalysisManager
from ..insitu.pipeline import AsyncInSituManager
from ..io.catalog import HaloCatalog, merge_catalogs
from ..io.genericio import GenericIOFile
from ..machines.listener import Listener, ListenerStats
from ..machines.staging import Level2Device, Level2Reader, level2_device
from ..obs import RunTelemetry, get_recorder
from ..parallel.transport import resolve_transport
from ..sim.hacc import HACCSimulation, SimulationConfig
from .accounting import FailureRecord

__all__ = [
    "CombinedRunResult",
    "offline_center_job",
    "run_combined_workflow",
    "centers_from_level2_arrays",
]


@dataclass
class CombinedRunResult:
    """Everything a live combined run produced."""

    catalog: HaloCatalog  # merged, complete Level 3
    insitu_catalog: HaloCatalog
    offline_catalog: HaloCatalog
    offloaded_halo_tags: list[int]
    #: the Level 2 device keys the listener picked up (a spool's file
    #: paths, or staged item names for an in-transit run)
    level2_paths: list[str] = field(default_factory=list)
    listener_stats: ListenerStats | None = None
    #: :class:`~repro.obs.report.RunTelemetry` snapshot of the run
    #: (``None`` when telemetry is disabled — the default).
    telemetry: RunTelemetry | None = None
    #: ``True`` when an off-line leg exhausted its retries: ``catalog``
    #: is then missing the failed snapshots' off-loaded halos (worst
    #: case: the in-situ-only catalog), and ``failures`` says which.
    degraded: bool = False
    failures: list[FailureRecord] = field(default_factory=list)


def centers_from_level2_arrays(
    data: dict[str, np.ndarray],
    particle_mass: float = 1.0,
    softening: float = 1.0e-5,
    workers: int | None = None,
) -> HaloCatalog:
    """Find MBP centers for a Level 2 bundle (pos/tag/halo_tag arrays).

    ``workers`` is the width of the :mod:`repro.exec` engine run (the
    same batch path the in-situ centers take) — the off-loaded halos are
    exactly the giant ones, so this is where slab-splitting over several
    workers pays off most.
    """
    pos = np.asarray(data["pos"], dtype=float)
    tags = np.asarray(data["tag"], dtype=np.int64)
    halo_tags = np.asarray(data["halo_tag"], dtype=np.int64)
    if len(pos) == 0:
        return HaloCatalog()

    res = halo_centers(
        pos,
        tags,
        halo_tags,
        mass=particle_mass,
        softening=softening,
        workers=workers,
    )
    # One O(n log n) pass instead of the former O(halos × particles)
    # per-tag scan: count every tag once, then gather in result order.
    uniq, uniq_counts = np.unique(halo_tags, return_counts=True)
    counts = uniq_counts[np.searchsorted(uniq, res.halo_tags)].astype(np.int64)
    return HaloCatalog.from_columns(
        halo_tag=res.halo_tags.astype(np.uint64),
        count=counts,
        center=res.centers,
        mbp_tag=res.mbp_tags.astype(np.uint64),
        potential=res.potentials,
        particle_mass=particle_mass,
    )


def offline_center_job(
    level2: str | os.PathLike | Level2Reader,
    particle_mass: float = 1.0,
    softening: float = 1.0e-5,
    block: int | None = None,
    workers: int | None = None,
) -> HaloCatalog:
    """The stand-alone analysis driver the listener launches.

    Reads one Level 2 product — a GenericIO file's path, or the reader
    a Level 2 device's ``get`` returned — whole or a single block of it
    (the Moonlight single-node-job pattern), groups particles by halo
    tag, and finds each halo's MBP center.
    ``workers`` is the width of that :mod:`repro.exec` batch: ``> 1``
    fills the analysis node's cores.
    """
    source = GenericIOFile(level2) if isinstance(level2, (str, os.PathLike)) else level2
    with get_recorder().span(
        "offline.center_job", path=source.path, block=block, workers=workers
    ):
        data = source.read_all() if block is None else source.read_block(block)
        return centers_from_level2_arrays(
            data,
            particle_mass=particle_mass,
            softening=softening,
            workers=workers,
        )


def run_combined_workflow(
    config: SimulationConfig,
    spool_dir: str | os.PathLike | Level2Device,
    threshold: int,
    linking_length_factor: float = 0.2,
    min_count: int = 40,
    n_ranks: int = 8,
    coschedule: bool = False,
    listener_poll: float = 0.1,
    analysis_workers: int | None = None,
    retry: RetryPolicy | None = None,
    journal_dir: str | os.PathLike | None = None,
    run_id: str | None = None,
    spmd_transport=None,
    pipeline_insitu: bool = True,
    analysis_steps: list[int] | None = None,
) -> CombinedRunResult:
    """Run the combined in-situ/off-line workflow for real.

    With ``coschedule=True`` a threaded listener watches the spool while
    the simulation runs and analyzes each Level 2 file as it appears;
    otherwise the off-line pass runs after the simulation completes
    (the "simple" variant).  Results are identical either way.

    ``spool_dir`` is where Level 2 goes: a Level 2 device, or a spool
    directory's path (:func:`~repro.machines.staging.level2_device`) —
    a :class:`~repro.machines.staging.StagingArea` for the in-transit
    hand-off, where no Level 2 file touches disk.  Each product is
    released once its off-line job succeeds (a staged item leaves the
    device, a spool file stays); a dead-lettered one stays on the
    device.  Results are identical either way.

    ``analysis_workers`` is the width of every off-line center job's
    :mod:`repro.exec` batch (``> 1``: the node's cores actually used;
    same results at any value).

    ``spmd_transport`` selects the halo finder's SPMD substrate
    (``"thread"``, ``"process"``, or a
    :class:`~repro.parallel.transport.SpmdConfig`); ``"process"`` forks
    one OS process per analysis rank for real multi-core FOF.
    ``pipeline_insitu`` (default on) runs the in-situ chain of step *t*
    on a snapshot buffer concurrently with steps *t+1…*
    (:class:`~repro.insitu.pipeline.AsyncInSituManager`): the catalogs
    are bit-identical to the inline run, but analysis wall time overlaps
    simulation wall time (``WorkflowTimeline.overlap_fraction() > 0``).
    The chain stays inline when nothing can overlap (the final step is
    the only analysis step, so no snapshot buffer is paid) and when the
    rank transport resolves to ``"process"`` (forking rank worlds from
    the pipeline thread while the PM threads run is unsafe).
    ``analysis_steps`` lists the steps the in-situ chain fires at
    (default: the final step only, the paper's Level 2 cadence); it must
    include ``config.n_steps``, whose catalog is the final product —
    earlier steps' products stay available through the analysis history
    and give the pipelining something to overlap.

    ``retry`` is the listener's submit policy (``None`` → the tree-wide
    default of 3 attempts).  An off-line job that fails every attempt
    (e.g. an ``"offline.job"`` fault with ``always=True``) degrades the
    run instead of aborting it: the result carries ``degraded=True``
    plus one :class:`~repro.core.accounting.FailureRecord` per missing
    snapshot, and ``catalog`` contains whatever legs completed.

    ``journal_dir`` makes the run *durable*: a run directory
    ``<journal_dir>/<run_id>/`` is created with a manifest (config hash,
    seeds, fault plan, code version) and every event / span / metric
    snapshot / failure record streams into its crash-safe journal
    (see :mod:`repro.obs.journal`; explore it with
    ``python -m repro.obs``).  A live recorder is installed for the
    run's duration if telemetry was off.  ``run_id`` names the run
    directory (defaults to the recorder's generated id).
    """
    if journal_dir is not None:
        # nothing but the parameters is bound yet: locals() *is* the call
        return _run_combined_journaled(dict(locals()))
    rec = get_recorder()
    device = level2_device(spool_dir)
    last_step = config.n_steps
    steps = sorted(set(analysis_steps)) if analysis_steps is not None else [last_step]
    if last_step not in steps:
        raise ValueError(
            f"analysis_steps must include the final step {last_step} "
            "(its catalog is the run's Level 3 product)"
        )
    pipelined = (
        pipeline_insitu
        and len(steps) > 1
        and resolve_transport(spmd_transport).transport != "process"
    )
    rec.event(
        "workflow.start",
        mode="coscheduled" if coschedule else "simple",
        handoff=device.kind,
        threshold=threshold,
        n_steps=config.n_steps,
        pipeline_insitu=pipelined,
    )

    manager = InSituAnalysisManager()
    manager.register(
        HaloFinderAlgorithm(
            at_steps=steps,
            linking_length_factor=linking_length_factor,
            min_count=min_count,
            n_ranks=n_ranks,
            transport=spmd_transport,
        )
    )
    manager.register(HaloCenterAlgorithm(at_steps=steps, threshold=threshold))
    manager.register(Level2WriterAlgorithm(at_steps=steps, output_dir=device))
    exec_manager = AsyncInSituManager(manager) if pipelined else manager

    offline_catalogs: list[tuple[int, HaloCatalog]] = []

    def submit(key: str, step: int, script: str) -> None:
        maybe_inject("offline.job", key=step)
        # get does not consume: a retry reads the product again, and a
        # dead-lettered one stays on the device
        catalog = offline_center_job(device.get(key), workers=analysis_workers)
        offline_catalogs.append((step, catalog))
        device.release(key)

    sim = HACCSimulation(config, analysis_manager=exec_manager)
    listener = Listener(
        device, "l2_step*.gio", submit, poll_interval=listener_poll, retry=retry
    )
    if coschedule:
        with rec.span("workflow.sim", coschedule=True):
            listener.start()
            try:
                sim.run()
            finally:
                # pipelined analyses must land (Level 2 products written)
                # before the listener's final poll; close() re-raises their
                # failures
                try:
                    if pipelined:
                        exec_manager.close()
                finally:
                    listener.stop(final_poll=True)
    else:
        try:
            with rec.span("workflow.sim", coschedule=False):
                sim.run()
        finally:
            if pipelined:  # the pipeline thread never outlives the run
                exec_manager.close()
        with rec.span("workflow.offline"):
            listener.poll_once()  # one shot after the run ("queued after sim")

    ctx = manager.history[last_step]
    insitu_catalog: HaloCatalog = ctx.store["centers"]["catalog"]
    offloaded = ctx.store["centers"]["offloaded_halo_tags"]
    with rec.span("workflow.merge"):
        # the Level 3 product is single-epoch: only the final step's
        # off-line catalog merges in (earlier analysis_steps' catalogs
        # stay reachable through manager.history / the spool)
        final_offline = [cat for step, cat in offline_catalogs if step == last_step]
        offline_catalog = (
            merge_catalogs(*final_offline) if final_offline else HaloCatalog()
        )
        merged = merge_catalogs(insitu_catalog, offline_catalog)

    # graceful degradation: snapshots whose off-line job exhausted its
    # retries are recorded, not raised — the campaign's other legs stand
    # (the listener dead-lettered each one, keyed by step, with its error)
    failures = [
        FailureRecord(stage="offline", key=e.key, reason=e.reason, attempts=e.attempts)
        for e in listener.dead_letter.entries()
    ]
    degraded = listener.dead_letter.total > 0
    if degraded:
        rec.event(
            "workflow.degraded",
            level="warning",
            missing_steps=[f.key for f in failures],
            jobs_failed=listener.stats.jobs_failed,
        )
    rec.event(
        "workflow.done",
        halos=len(merged),
        offloaded=len(offloaded),
        jobs_failed=listener.stats.jobs_failed,
        degraded=degraded,
    )
    return CombinedRunResult(
        catalog=merged,
        insitu_catalog=insitu_catalog,
        offline_catalog=offline_catalog,
        offloaded_halo_tags=offloaded,
        level2_paths=sorted(listener.seen),
        listener_stats=listener.stats,
        telemetry=RunTelemetry.from_recorder(rec),
        degraded=degraded,
        failures=failures,
    )


def _run_combined_journaled(call: dict[str, Any]) -> CombinedRunResult:
    """The durable wrapper around :func:`run_combined_workflow`.

    ``call`` is the caller's complete keyword-argument mapping.  Opens
    the run directory + journal, scopes the recorder to the run id, and
    guarantees the journal's terminal records (failures, final metrics
    snapshot, ``run.end``) even when the run raises — a crashed run
    keeps its tail via the journal's ``atexit`` flush.
    """
    from dataclasses import asdict

    from ..faults import get_fault_plan, resolve_retry
    from ..obs import TelemetryRecorder, set_recorder
    from ..obs.journal import RunJournal

    journal_dir, run_id = call.pop("journal_dir"), call.pop("run_id")
    config: SimulationConfig = call["config"]
    # the manifest records every science-relevant knob; where the files go
    # and how patiently the listener polls and retries are not among them
    workflow = {
        k: v
        for k, v in call.items()
        if k not in ("config", "spool_dir", "listener_poll", "retry")
    }
    transport = workflow["spmd_transport"]
    workflow["spmd_transport"] = str(transport) if transport else None
    rec = get_recorder()
    previous_rec = None
    if not getattr(rec, "enabled", False):
        rec = TelemetryRecorder(run_id=run_id)
        previous_rec = set_recorder(rec)
    rid = run_id or rec.run_id or "run"
    plan = get_fault_plan()
    journal = RunJournal.create(
        journal_dir,
        rid,
        config={"workflow": {"kind": "combined", **workflow}, "sim": asdict(config)},
        seeds={"sim": config.seed, "retry": resolve_retry(call["retry"]).seed},
        fault_plan=plan.to_dict() if plan is not None else None,
    )
    status = "ok"
    result: CombinedRunResult | None = None
    try:
        with rec.run_scope(rid):
            rec.attach_journal(journal)
            try:
                result = run_combined_workflow(**call)
            except BaseException:
                status = "error"
                raise
            finally:
                for f in result.failures if result is not None else []:
                    journal.failure(dict(f.as_dict(), run=rid))
                journal.metrics_snapshot(rec.metrics.as_dict(), label="final")
                rec.detach_journal()
                journal.close(
                    status=status,
                    degraded=bool(result is not None and result.degraded),
                )
    finally:
        if previous_rec is not None:
            set_recorder(previous_rec)
    return result
