#!/usr/bin/env python
"""Fault drill: kill the co-scheduled leg mid-run, watch it degrade.

Three acts (see docs/failures.md for the failure model):

1. **Clean run** — the combined workflow with no fault plan: the
   listener's off-line jobs all succeed and the merged Level 3 catalog
   is complete.
2. **Transient faults** — the first submit attempt of every snapshot
   fails (``fail_first=1`` at ``listener.submit``); the shared
   RetryPolicy absorbs it.  Same catalog, a few retries in the books.
3. **Permanent outage** — every off-line job fails every attempt
   (``always=True`` at ``offline.job``).  The run *completes anyway*:
   ``degraded=True``, one FailureRecord per missing snapshot — straight
   from the listener's dead-letter box, so its ``reason`` is the error
   the last attempt really raised (``FaultInjected: injected fault at
   offline.job (key='12', attempt=2)``) — and the Level 3 catalog
   gracefully falls back to the in-situ-only leg.  The act runs on both
   Level 2 hand-offs — the spool directory and the in-transit
   ``StagingArea`` — and asserts equal failures and degraded catalogs:
   one ladder owns both.

Determinism: the whole drill is reproducible bit-for-bit from the two
seeds below (simulation seed + FaultPlan seed).

Usage::

    python examples/fault_drill.py     # runs in well under 60 s
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import run_combined_workflow
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_plan
from repro.machines import StagingArea
from repro.sim import SimulationConfig

CONFIG = SimulationConfig(
    np_per_dim=20, box=36.0, z_initial=24.0, z_final=0.0, n_steps=12, ng=40
)
THRESHOLD = 150  # paper: 300,000 at production scale


def run(
    spool: Path | StagingArea, plan: FaultPlan | None, retry: RetryPolicy | None = None
):
    with fault_plan(plan):
        return run_combined_workflow(
            CONFIG,
            spool,
            threshold=THRESHOLD,
            min_count=30,
            n_ranks=4,
            coschedule=True,
            retry=retry,
        )


def main() -> None:
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        # -- act 1: clean ----------------------------------------------------
        print("=== act 1: clean co-scheduled run ===")
        clean = run(Path(tmp) / "clean", plan=None)
        print(
            f"merged Level 3: {len(clean.catalog)} halos "
            f"({len(clean.insitu_catalog)} in-situ + "
            f"{len(clean.offline_catalog)} off-line), degraded={clean.degraded}"
        )

        # -- act 2: transient faults, absorbed by retries --------------------
        print("\n=== act 2: transient submit faults (fail_first=1) ===")
        transient_plan = FaultPlan(
            seed=7, sites={"listener.submit": FaultSpec(fail_first=1)}
        )
        with obs.telemetry(run_id="fault-drill-transient") as rec:
            transient = run(Path(tmp) / "transient", plan=transient_plan)
        stats = transient.listener_stats
        print(
            f"faults injected: {transient_plan.total_injected}, "
            f"submit retries: {stats.submit_retries}, "
            f"jobs failed: {stats.jobs_failed}, degraded={transient.degraded}"
        )
        assert not transient.degraded
        assert np.array_equal(
            transient.catalog["halo_tag"], clean.catalog["halo_tag"]
        ), "retries must not change the science"
        print("catalog identical to the clean run — retries absorbed the faults")
        failure_table = transient.telemetry.failure_table()
        if failure_table:
            print(failure_table)

        # -- act 3: permanent outage, graceful degradation -------------------
        print("\n=== act 3: the off-line leg dies permanently ===")
        outcomes = {}
        for handoff, spool in (("spool", Path(tmp) / "outage"), ("staging", StagingArea())):
            outage_plan = FaultPlan(seed=7, sites={"offline.job": FaultSpec(always=True)})
            degraded = run(spool, plan=outage_plan)
            print(
                f"[{handoff}] degraded={degraded.degraded}, "
                f"missing snapshots: {[f.key for f in degraded.failures]}"
            )
            for f in degraded.failures:
                print(f"  FailureRecord: {f.as_dict()}")
            assert degraded.degraded
            assert all("FaultInjected" in f.reason for f in degraded.failures)
            assert len(degraded.offline_catalog) == 0
            assert np.array_equal(
                degraded.catalog["halo_tag"],
                degraded.insitu_catalog.sorted_by_tag()["halo_tag"],
            ), "degraded catalog must equal the in-situ-only leg"
            outcomes[handoff] = degraded
        on_disk, staged = outcomes["spool"], outcomes["staging"]
        assert [f.as_dict() for f in on_disk.failures] == [
            f.as_dict() for f in staged.failures
        ], "both hand-offs must fail the same way"
        assert np.array_equal(on_disk.catalog.records, staged.catalog.records)
        print(
            f"Level 3 (degraded): {len(degraded.catalog)} halos == "
            f"in-situ-only leg on both hand-offs; off-loaded giants absent "
            f"but accounted for"
        )
        print(
            f"\ncomplete vs degraded catalog: {len(clean.catalog)} vs "
            f"{len(degraded.catalog)} halos "
            f"({len(clean.catalog) - len(degraded.catalog)} giants missing)"
        )
    print(f"\nfault drill done in {time.perf_counter() - t_start:.1f} s")


if __name__ == "__main__":
    main()
