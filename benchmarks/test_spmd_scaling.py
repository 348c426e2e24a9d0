"""SPMD transport scaling + pipelined-workflow overlap harness.

Two measurements back the combined-workflow story:

* **Transport scaling** — the distributed FOF program run on 1 rank
  (inline), 2 thread ranks (the GIL-bound reference), and 2 *process*
  ranks (the :mod:`repro.parallel.transport` substrate: one OS process
  per rank, shared-memory array payloads).  The 2-rank runs must be
  bit-identical across transports (same decomposition, different rank
  substrate); with ≥2 real cores the process transport must beat 1 rank
  by ≥1.2x.  The 1-rank run is the timing baseline; its catalog is the
  same as the 2-rank one (``parallel_fof`` equals serial periodic FOF
  at every rank count).
* **Pipeline overlap** — the combined workflow with
  ``pipeline_insitu=True`` (the driver's default) runs the in-situ
  chain of step *t* concurrently with the solver's step *t+1*, against
  ``pipeline_insitu=False``, the inline chain; the
  :class:`~repro.obs.timeline.WorkflowTimeline` overlap fraction must
  be strictly positive (it is, even on one core: the heavy kernels
  release the GIL).

Results land in ``BENCH_spmd.json`` at the repo root (uploaded as a CI
artifact) plus a rendered text table under ``benchmarks/results/``.

Speedup gating
--------------
Real speedup needs real cores.  The harness always records
``cpu_count``; the ≥1.2x two-rank assertion is enforced only when the
host has ≥2 cores (or ``SPMD_BENCH_REQUIRE_SPEEDUP=1`` forces it, as CI
does).  ``SPMD_BENCH_MIN_SPEEDUP2`` overrides the threshold.  The
overlap gate has no core requirement and always holds.
"""

import json
import os
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from repro import obs
from repro.analysis.fof import parallel_fof
from repro.core.driver import run_combined_workflow
from repro.obs.timeline import WorkflowTimeline
from repro.parallel import CartesianDecomposition, run_spmd
from repro.sim.hacc import SimulationConfig

from conftest import save_result

BENCH_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_spmd.json")
)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _clustered_points(rng, n_clumps=60, per_clump=600, box=100.0):
    """Dense clumps spread through the box: real work for distributed FOF."""
    centers = rng.uniform(0, box, (n_clumps, 3))
    pos = np.concatenate(
        [c + rng.normal(0, 0.4, (per_clump, 3)) for c in centers]
    )
    pos = np.mod(pos, box)
    return pos, np.arange(len(pos), dtype=np.uint64)


def _fof_program(pos, tags, box):
    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        mine = decomp.rank_of_position(pos) == comm.rank
        halos = parallel_fof(
            comm,
            decomp,
            pos[mine],
            tags[mine],
            linking_length=0.25,
            overload_width=4.0,
            min_count=20,
        )
        return {int(k): np.sort(v) for k, v in halos.items()}

    return prog


def _merge(results):
    out = {}
    for r in results:
        out.update(r)
    return out


def test_spmd_transport_scaling(bench_rng):
    box = 100.0
    pos, tags = _clustered_points(bench_rng)
    prog = _fof_program(pos, tags, box)
    cpu_count = _cpu_count()

    variants = {}
    baselines = {}
    for name, nranks, transport in (
        ("1rank", 1, "thread"),
        ("2rank_thread", 2, "thread"),
        ("2rank_process", 2, "process"),
    ):
        times = []
        for _ in range(2):  # best of 2: first call pays warm-up/fork cost
            t0 = time.perf_counter()
            halos = _merge(run_spmd(nranks, prog, transport=transport))
            times.append(time.perf_counter() - t0)
        variants[name] = {"seconds": min(times), "n_halos": len(halos)}
        baselines[name] = halos

    # bit-identity across transports at the same rank count: the process
    # substrate must be observationally indistinguishable from threads
    ref = baselines["2rank_thread"]
    proc = baselines["2rank_process"]
    assert sorted(proc) == sorted(ref), "2rank_process: halo tag set diverged"
    for tag in ref:
        assert np.array_equal(proc[tag], ref[tag]), f"2rank_process: halo {tag} diverged"

    serial_seconds = variants["1rank"]["seconds"]
    for name in ("2rank_thread", "2rank_process"):
        variants[name]["speedup_vs_1rank"] = (
            serial_seconds / variants[name]["seconds"]
            if variants[name]["seconds"] > 0
            else 0.0
        )

    require_speedup = (
        cpu_count >= 2 or os.environ.get("SPMD_BENCH_REQUIRE_SPEEDUP") == "1"
    )
    min_speedup2 = float(os.environ.get("SPMD_BENCH_MIN_SPEEDUP2", "1.2"))
    speedup2 = variants["2rank_process"]["speedup_vs_1rank"]

    # -- pipelined combined workflow: overlap measured from the trace -----
    config = SimulationConfig(np_per_dim=24, n_steps=6, seed=7)
    overlap = {}
    solver_overlap = {}
    for pipelined in (False, True):
        with obs.telemetry() as rec:
            with tempfile.TemporaryDirectory() as spool:
                run_combined_workflow(
                    config,
                    spool,
                    threshold=200,
                    n_ranks=4,
                    min_count=20,
                    pipeline_insitu=pipelined,
                    analysis_steps=[3, 4, 5, 6],
                )
            timeline = WorkflowTimeline(spans=rec.tracer.snapshot())
            key = "pipelined" if pipelined else "serial"
            overlap[key] = round(timeline.overlap_fraction(), 4)
            # the strict metric: analysis running *while the force kernel
            # computes* — ~0 for the serial manager by construction
            solver_overlap[key] = round(timeline.solver_overlap_fraction(), 4)
    assert overlap["pipelined"] > 0.0, "pipelined run shows no sim/analysis overlap"
    assert solver_overlap["pipelined"] > solver_overlap["serial"], (
        "pipelining did not increase analysis/solver concurrency"
    )

    payload = {
        "benchmark": "spmd_scaling",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "cpu_count": cpu_count,
        "workload": {
            "n_particles": int(len(pos)),
            "n_halos": int(len(ref)),
            "box": box,
        },
        "variants": variants,
        "speedup_gate": {
            "enforced": require_speedup,
            "min_speedup_at_2_process_ranks": min_speedup2,
            "passed": (not require_speedup) or speedup2 >= min_speedup2,
        },
        "pipeline_overlap_fraction": overlap,
        "solver_overlap_fraction": solver_overlap,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    lines = [
        f"SPMD transport scaling (distributed FOF, {len(pos)} particles, "
        f"{len(ref)} halos, {cpu_count} cores)",
        f"  1 rank (inline):    {variants['1rank']['seconds']:.3f} s",
        f"  2 ranks (thread):   {variants['2rank_thread']['seconds']:.3f} s  "
        f"speedup {variants['2rank_thread']['speedup_vs_1rank']:.2f}x",
        f"  2 ranks (process):  {variants['2rank_process']['seconds']:.3f} s  "
        f"speedup {speedup2:.2f}x",
        f"  gate: enforced={require_speedup} (min {min_speedup2:.2f}x) "
        f"passed={payload['speedup_gate']['passed']}",
        "pipelined combined workflow overlap fraction (coarse / solver-strict):",
        f"  serial manager:    {overlap['serial']:.4f} / {solver_overlap['serial']:.4f}",
        f"  pipelined manager: {overlap['pipelined']:.4f} / {solver_overlap['pipelined']:.4f}",
    ]
    save_result("spmd_scaling", "\n".join(lines))

    if require_speedup:
        assert speedup2 >= min_speedup2, (
            f"2-process-rank speedup {speedup2:.2f}x below the "
            f"{min_speedup2:.2f}x gate (cores={cpu_count})"
        )
