"""The four benchmark workloads and their per-layer replays.

Each workload touches ``repro`` only through public functions.  A
workload object has:

``setup()``
    inputs from the seed, reference products, warm pools, warm-up; returns
    the reference later products are checked against, or ``None`` when the
    first verified product becomes that reference (``reference_of``).
``run_once(spans)``
    one whole path to a product; returns ``(wall seconds, product)``.
``verify(product, reference)``
    ``(failed operations, problems)`` — never against a pinned digest.
``sabotage(product)``
    corrupt a product in place, so the self-check can prove that
    ``verify`` rejects it.
``layers(spans, wall_s, reference)``
    the traced pass: each layer's public entry point replayed on the
    workload's own inputs, every call under a benchmark-owned span.

Sizes come in two scales: the measured one (ISSUE 12's sizing) and
``quick`` (the self-check's, a few seconds for all four).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

import numpy as np

from harness import Spans, peak_rss_mb, timed_median


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Shared bookkeeping; see the module docstring for the interface."""

    name = ""
    #: operations one iteration attempts (jobs for the campaign, else 1)
    ops = 1

    def __init__(self, seed: int, workdir: str, quick: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.retries = 0
        self.dead_letters = 0
        self.info: dict[str, Any] = {}
        self._dirs = 0

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{stem}-{self._dirs:03d}")
        os.makedirs(path)
        return path

    def setup(self) -> Any:
        return None

    def teardown(self) -> None:
        pass


# -- sim-bound-64 / analysis-bound-48 -----------------------------------------


class WorkflowWorkload(Workload):
    """``run_combined_workflow`` from initial conditions to the Level 3 catalog."""

    MIN_COUNT = 40
    N_RANKS = 2

    def __init__(self, name: str, seed: int, workdir: str, quick: bool) -> None:
        super().__init__(seed, workdir, quick)
        self.name = name
        if name == "sim-bound-64":
            # box=200, not ISSUE 12's 100: at box=100 the brute-force center of
            # the one largest halo (n² pairs, cosmic variance) swung wall from
            # 4.0 to 9.8 s and peak RSS from 339 to 872 MB across ten seeds
            np_dim, box, steps = (32, 50.0, 10) if quick else (64, 200.0, 30)
            self.threshold = 100 if quick else 250
            self.analysis_steps = None
            self.coschedule, self.workers, self.transport = False, None, "thread"
        else:
            np_dim, box, steps = (32, 50.0, 10) if quick else (48, 75.0, 20)
            self.threshold = 60 if quick else 100
            self.analysis_steps = list(range(2, steps + 1, 2))
            # thread ranks, not ISSUE 12's process ranks: forking a rank world
            # while the listener thread is inside multiprocessing.shared_memory
            # deadlocks the child on the resource tracker's lock (bench/README.md,
            # "Known hazards"); 1 run in 25 hung.  The process transport is
            # still measured, in the quiescent replay (parallel.*_process_*).
            self.coschedule, self.workers, self.transport = True, 2, "thread"
        from repro.sim.hacc import SimulationConfig

        self.config = SimulationConfig(
            np_per_dim=np_dim, ng=np_dim, box=box, z_initial=30.0, n_steps=steps, seed=seed
        )
        self.units = float(np_dim**3 * steps)
        self.size = f"{np_dim}^3 particles x {steps} steps (particle-steps)"

    def setup(self) -> Any:
        if self.workers:
            # Known hazard (bench/README.md): the first fork of the exec pool
            # from the listener thread while a threaded scipy.fft is in flight
            # can raise "Work item submitted after shutdown".  Fork the pool
            # here, from the main thread, before the first FFT; it is reused.
            from repro.exec import parallel_halo_centers

            pos = np.random.default_rng(0).uniform(0.0, 1.0, (600, 3))
            parallel_halo_centers(
                pos, np.arange(600), np.repeat([0, 1], 300), workers=self.workers
            )
        # one whole warm-up iteration: the first run of a process is ~20%
        # slower (solver kernels, FFT plans, lazy imports)
        _, product = self.run_once(Spans(self.name))
        _, problems = self.verify(product, None)
        if problems:
            raise RuntimeError(f"warm-up product rejected: {problems}")
        return self.reference_of(product)

    def teardown(self) -> None:
        from repro.exec import shutdown_pool

        shutdown_pool()

    def run_once(self, spans: Spans) -> tuple[float, Any]:
        from repro.core import run_combined_workflow

        spool = self.fresh_dir("spool")
        t0 = time.perf_counter()
        with spans.span("core.run_combined_workflow"):
            result = run_combined_workflow(
                self.config,
                spool,
                threshold=self.threshold,
                min_count=self.MIN_COUNT,
                n_ranks=self.N_RANKS,
                coschedule=self.coschedule,
                analysis_workers=self.workers,
                spmd_transport=self.transport,
                analysis_steps=self.analysis_steps,
            )
        return time.perf_counter() - t0, result

    def reference_of(self, result: Any) -> str:
        return digest(result.catalog.records)

    def verify(self, result: Any, reference: str | None) -> tuple[int, list[str]]:
        problems = []
        merged = result.catalog
        insitu = result.insitu_catalog["halo_tag"]
        offline = result.offline_catalog["halo_tag"]
        if not np.array_equal(
            np.sort(merged["halo_tag"]), np.sort(np.concatenate([insitu, offline]))
        ):
            problems.append("merged catalog is not in-situ ∪ off-line")
        if result.degraded:
            problems.append(f"degraded run: {result.failures}")
        count_of = dict(zip(merged["halo_tag"].tolist(), merged["count"].tolist()))
        small = [t for t in result.offloaded_halo_tags if count_of.get(t, 0) <= self.threshold]
        if small:
            problems.append(f"off-loaded halos at or below the threshold: {small[:5]}")
        if sorted(offline.tolist()) != sorted(result.offloaded_halo_tags):
            problems.append("off-line catalog differs from the off-loaded tag list")
        if len(merged) == 0:
            problems.append("empty catalog")
        if reference is not None and self.reference_of(result) != reference:
            problems.append("catalog digest differs from the warm-up iteration's")
        stats = result.listener_stats
        self.retries += stats.submit_retries
        self.dead_letters += stats.jobs_failed
        self.info = {"halos": len(merged), "offloaded": len(result.offloaded_halo_tags)}
        return 1, problems

    def sabotage(self, result: Any) -> None:
        result.catalog.records["count"][0] += 1

    # -- traced pass ---------------------------------------------------------------

    def layers(self, spans: Spans, wall_s: float, reference: str) -> dict[str, float]:
        out = self._replay_workflow(spans, wall_s, reference)
        out.update(self._replay_kernels(spans))
        if self.coschedule:
            out.update(self._replay_coscheduling(spans, wall_s))
        return out

    def _replay_workflow(self, spans: Spans, wall_s: float, reference: str) -> dict[str, float]:
        """The driver's path again, taken apart: IC, sim, chain, off-line, merge.

        Same algorithms and parameters as ``run_combined_workflow``, but
        strictly one after the other, so the sum is the *blocking* path.
        """
        from repro.core import offline_center_job
        from repro.insitu.algorithms import (
            HaloCenterAlgorithm,
            HaloFinderAlgorithm,
            Level2WriterAlgorithm,
        )
        from repro.insitu.manager import InSituAnalysisManager
        from repro.io.catalog import merge_catalogs
        from repro.sim.hacc import HACCSimulation

        cfg = self.config
        steps = self.analysis_steps or [cfg.n_steps]
        self.spool = self.fresh_dir("replay-spool")
        manager = InSituAnalysisManager()
        manager.register(
            HaloFinderAlgorithm(
                at_steps=steps,
                linking_length_factor=0.2,
                min_count=self.MIN_COUNT,
                n_ranks=self.N_RANKS,
                transport=self.transport,
            )
        )
        manager.register(HaloCenterAlgorithm(at_steps=steps, threshold=self.threshold))
        manager.register(Level2WriterAlgorithm(at_steps=steps, output_dir=self.spool))

        class SpannedManager:
            """The simulation's analysis hook, under a benchmark span."""

            def execute(self, sim: Any, step: int, a: float) -> Any:
                with spans.span("insitu.chain"):
                    return manager.execute(sim, step, a)

        with spans.span("sim.ic"):
            sim = HACCSimulation(cfg, analysis_manager=SpannedManager())
        with spans.span("sim.run"):
            records = sim.run()
        self.sim = sim
        contexts = [manager.history[s] for s in steps]
        self.l2_paths = [c.store["level2"]["path"] for c in contexts]
        offline = []
        for path in self.l2_paths:
            with spans.span("core.offline_job"):
                offline.append(offline_center_job(path, workers=self.workers))
        with spans.span("io.merge"):
            merged = merge_catalogs(contexts[-1].store["centers"]["catalog"], offline[-1])
        if digest(merged.records) != reference:
            raise RuntimeError("replayed workflow's catalog differs from the timed runs'")

        def alg_seconds(name: str) -> float:
            return sum(c.timings["wall_seconds"][name] for c in contexts)

        run_s = spans.total("sim.run") - spans.total("insitu.chain")
        blocking = (
            spans.total("sim.ic")
            + spans.total("sim.run")
            + spans.total("core.offline_job")
            + spans.total("io.merge")
        )
        return {
            "sim.ic_s": spans.total("sim.ic"),
            "sim.run_s": run_s,
            "sim.step_ms": 1e3 * statistics.median(r.force_seconds for r in records),
            "insitu.chain_s": spans.total("insitu.chain"),
            "insitu.fof_s": alg_seconds("halo_finder"),
            "insitu.centers_s": alg_seconds("halo_centers"),
            "insitu.l2_write_ms": 1e3 * sum(c.timings["level2_write_seconds"] for c in contexts),
            "core.offline_job_s": spans.total("core.offline_job"),
            "io.merge_ms": 1e3 * spans.total("io.merge"),
            "core.analysis_added_s": wall_s - run_s,
            "core.overlap_saved_s": blocking - wall_s,
        }

    def _replay_kernels(self, spans: Spans) -> dict[str, float]:
        """sim / analysis / parallel / io kernels on the final snapshot."""
        from repro.analysis.centers import halo_centers
        from repro.analysis.fof import fof_grid, parallel_fof
        from repro.io.genericio import GenericIOFile, write_genericio
        from repro.parallel import CartesianDecomposition, run_spmd
        from repro.sim.pmsolver import get_solver

        cfg, sim = self.config, self.sim
        out: dict[str, float] = {}

        solver = get_solver(cfg.mesh_size)
        pos_grid = sim.grid_positions
        factor = sim.cosmo.poisson_factor(sim.a)
        ffts = solver.fft_count
        with spans.span("sim.force"):
            out["sim.force_ms"] = 1e3 * timed_median(
                lambda: solver.accelerations(pos_grid, factor), 10
            )
        out["sim.ffts_per_force"] = (solver.fft_count - ffts) / 10
        with spans.span("sim.deposit"):
            out["sim.deposit_ms"] = 1e3 * timed_median(lambda: solver.deposit(pos_grid), 10)

        pos = np.asarray(sim.particles.pos, dtype=float)
        tags = np.asarray(sim.particles.tag, dtype=np.int64)
        ll = 0.2 * cfg.box / cfg.np_per_dim
        with spans.span("analysis.fof_grid"):
            serial = fof_grid(pos, ll, tags=tags, min_count=self.MIN_COUNT, box=cfg.box)
        with spans.span("analysis.centers"):
            centers = halo_centers(
                pos, tags, serial.labels, mass=sim.particles.particle_mass, backend="vector"
            )
        out["analysis.fof_grid_s"] = spans.total("analysis.fof_grid")
        out["analysis.fof_mparts_per_s"] = len(pos) / 1e6 / out["analysis.fof_grid_s"]
        out["analysis.fof_halos"] = serial.n_halos
        out["analysis.centers_s"] = spans.total("analysis.centers")
        out["analysis.center_pairs"] = centers.stats.pair_evaluations

        decomp = CartesianDecomposition.for_ranks(cfg.box, self.N_RANKS)
        owners = decomp.rank_of_position(pos)

        def fof_prog(comm: Any) -> int:
            mine = owners == comm.rank
            halos = parallel_fof(
                comm,
                decomp,
                pos[mine],
                tags[mine],
                linking_length=ll,
                overload_width=8.0 * ll,
                min_count=self.MIN_COUNT,
            )
            return len(halos)

        def barrier_prog(comm: Any) -> None:
            comm.barrier()

        for transport in ("process", "thread"):
            with spans.span(f"parallel.fof_{transport}"):
                found, world = run_spmd(
                    self.N_RANKS, fof_prog, transport=transport, return_world=True
                )
            out[f"parallel.fof_{transport}_s"] = spans.total(f"parallel.fof_{transport}")
            with spans.span(f"parallel.spawn_{transport}"):
                out[f"parallel.spawn_{transport}_ms"] = 1e3 * timed_median(
                    lambda: run_spmd(self.N_RANKS, barrier_prog, transport=transport), 10
                )
        # the thread world's counts (last in the loop); the two transports agree
        out["parallel.msgs"] = world.messages_sent
        out["parallel.bytes"] = world.bytes_sent
        out["parallel.fof_halo_delta"] = sum(found) - serial.n_halos

        l2 = GenericIOFile(self.l2_paths[-1])
        blocks = [l2.read_block(b) for b in range(l2.num_blocks)]
        copy = os.path.join(self.spool, "l2_copy.gio")
        with spans.span("io.l2_write"):
            out["io.l2_write_ms"] = 1e3 * timed_median(lambda: write_genericio(copy, blocks), 5)
        with spans.span("io.l2_read"):
            out["io.l2_read_ms"] = 1e3 * timed_median(lambda: GenericIOFile(copy).read_all(), 5)
        out["io.l2_bytes"] = write_genericio(copy, blocks)
        return out

    def _replay_coscheduling(self, spans: Spans, wall_s: float) -> dict[str, float]:
        """Listener pickup, the exec engine on the last L2 bundle, recorder cost."""
        from repro import obs
        from repro.exec import parallel_halo_centers
        from repro.exec.pool import WorkerPool
        from repro.io.genericio import GenericIOFile
        from repro.machines.listener import Listener

        out: dict[str, float] = {}

        drop = self.fresh_dir("listener")
        picked = threading.Event()
        listener = Listener(
            drop, "drop_step*.gio", lambda path, step, script: picked.set(), poll_interval=0.1
        )
        listener.start()
        pickups = []
        phase = np.random.default_rng(self.seed)
        try:
            for i in range(10):
                picked.clear()
                time.sleep(phase.uniform(0.0, 0.1))  # drop anywhere in the poll cycle
                tmp = os.path.join(drop, f"tmp{i}")
                with open(tmp, "wb") as fh:
                    fh.write(b"x")
                with spans.span("machines.listener_pickup"):
                    t0 = time.perf_counter()
                    os.replace(tmp, os.path.join(drop, f"drop_step{i:04d}.gio"))
                    if not picked.wait(timeout=10.0):
                        raise RuntimeError("listener never picked the dropped file up")
                    pickups.append(time.perf_counter() - t0)
        finally:
            listener.stop(final_poll=False)
        out["machines.listener_pickup_ms"] = 1e3 * statistics.median(pickups)

        data = GenericIOFile(self.l2_paths[-1]).read_all()
        pos = np.asarray(data["pos"], dtype=float)
        tag = np.asarray(data["tag"], dtype=np.int64)
        halo = np.asarray(data["halo_tag"], dtype=np.int64)
        for w in (1, 2):
            with spans.span(f"exec.centers_w{w}"):
                res = parallel_halo_centers(pos, tag, halo, workers=w)
            out[f"exec.centers_w{w}_s"] = spans.total(f"exec.centers_w{w}")
        out["exec.speedup_w2"] = out["exec.centers_w1_s"] / out["exec.centers_w2_s"]
        report = res.exec_report
        if report is not None:  # None when the bundle holds no halo
            out["exec.items"] = report.n_items
            out["exec.steals"] = report.total_steals
            out["exec.imbalance"] = report.imbalance
        with spans.span("exec.pool_spawn"):
            pool = WorkerPool(2)
        pool.close()
        out["exec.pool_spawn_ms"] = 1e3 * spans.total("exec.pool_spawn")
        out["exec.child_peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)

        with obs.telemetry():
            recorded_wall, result = self.run_once(spans)
        out["obs.recorder_overhead_frac"] = recorded_wall / wall_s - 1.0
        print(result.telemetry.phase_table("appendix: repro.obs phase table"), file=sys.stderr)
        return out


# -- stream-1m -------------------------------------------------------------------


LINKING_LENGTH = 0.2
STREAM_MIN_COUNT = 10
MF_BINS = (10.0, 1.0e6, 32)
CHUNK_ROWS = 32768


def stream_setup_helper(cfg: dict[str, Any]) -> dict[str, Any]:
    """Set-up subprocess of ``stream-1m``: snapshot + in-memory reference.

    Runs apart from the measuring process so that neither the generator's
    arrays nor the in-memory finder's count in the streamed path's
    ``peak_rss_mb``.  Clustered particles at fixed number density (box
    side ∝ n^{1/3}, spacing 1, so the linking length is 0.2).
    """
    from repro.analysis.fof import fof_grid
    from repro.analysis.mass_function import mass_function
    from repro.io.genericio import read_genericio
    from repro.streaming import write_slab_snapshot

    n = cfg["n"]
    rng = np.random.default_rng(cfg["seed"])
    box = float(round(n ** (1 / 3)))
    n_blob = n // 4
    n_centers = max(n // 2000, 8)
    centers = rng.uniform(0, box, (n_centers, 3))
    blob = centers[rng.integers(0, n_centers, n_blob)] + rng.normal(0, 0.15, (n_blob, 3))
    pos = np.concatenate([blob, rng.uniform(0, box, (n - n_blob, 3))])
    t0 = time.perf_counter()
    payload = write_slab_snapshot(cfg["path"], np.mod(pos, box), box=box, block_rows=131072)
    slab_write_s = time.perf_counter() - t0
    del pos, blob

    t0 = time.perf_counter()
    data = read_genericio(cfg["path"])
    result = fof_grid(
        np.asarray(data["pos"], dtype=np.float64),
        LINKING_LENGTH,
        tags=np.asarray(data["tag"], dtype=np.int64),
        min_count=STREAM_MIN_COUNT,
        box=box,
    )
    tags, counts = result.halo_tags, result.halo_counts  # sorted by tag
    lo, hi, n_bins = MF_BINS
    mf = mass_function(counts, n_bins, lo, hi)
    memory_wall_s = time.perf_counter() - t0
    return {
        "box": box,
        "payload_bytes": payload,
        "slab_write_s": slab_write_s,
        "memory_wall_s": memory_wall_s,
        "memory_rss_mb": peak_rss_mb(),
        "n_halos": len(tags),
        "catalog_sha256": digest(tags.astype(np.int64), counts.astype(np.int64)),
        "mf_sha256": digest(mf.counts),
    }


class StreamWorkload(Workload):
    name = "stream-1m"

    def __init__(self, seed: int, workdir: str, quick: bool) -> None:
        super().__init__(seed, workdir, quick)
        self.n = 2**16 if quick else 2**20
        self.units = float(self.n)
        self.size = f"{self.n} particles"
        self.path = os.path.join(workdir, "slab.gio")

    def setup(self) -> Any:
        cfg = {"helper": "stream-setup", "n": self.n, "seed": self.seed, "path": self.path}
        here = os.path.dirname(os.path.abspath(__file__))
        done = subprocess.run(
            [sys.executable, os.path.join(here, "harness.py"), json.dumps(cfg)],
            capture_output=True,
            text=True,
            timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(f"stream set-up helper failed:\n{done.stderr}")
        # no warm-up iteration: the first streamed pass is not measurably
        # slower than the next, and the set-up subprocess is already the
        # longest set-up of the four
        return json.loads(done.stdout.splitlines()[-1])

    def run_once(self, spans: Spans) -> tuple[float, Any]:
        from repro.streaming import GenericIOStream, StreamingAnalysis

        engine = StreamingAnalysis(
            linking_length=LINKING_LENGTH,
            min_count=STREAM_MIN_COUNT,
            mass_function_bins=MF_BINS,
        )
        t0 = time.perf_counter()
        with spans.span("streaming.run"):
            result = engine.run(GenericIOStream(self.path, chunk_rows=CHUNK_ROWS))
        return time.perf_counter() - t0, result

    def verify(self, result: Any, reference: dict[str, Any]) -> tuple[int, list[str]]:
        problems = []
        cat = result.catalog
        got = digest(cat.halo_tags.astype(np.int64), cat.halo_counts.astype(np.int64))
        if got != reference["catalog_sha256"]:
            problems.append(
                f"streamed catalog ({cat.n_halos} halos) differs from the in-memory "
                f"fof_grid catalog ({reference['n_halos']} halos)"
            )
        if digest(result.mass_function.counts) != reference["mf_sha256"]:
            problems.append("streamed mass function differs from the in-memory one")
        if result.n_particles != self.n:
            problems.append(f"streamed {result.n_particles} of {self.n} particles")
        self.info = {
            "halos": cat.n_halos,
            "chunks": result.n_chunks,
            "peak_resident_particles": result.peak_resident_particles,
        }
        return 1, problems

    def sabotage(self, result: Any) -> None:
        result.catalog.halo_counts[0] += 1

    def layers(self, spans: Spans, wall_s: float, reference: dict[str, Any]) -> dict[str, float]:
        from repro.analysis.fof import fof_grid
        from repro.io.genericio import GenericIOFile
        from repro.streaming import GenericIOStream, StreamingFOF

        rss_mb = peak_rss_mb()  # before the replays preload the chunks
        out: dict[str, float] = {
            "streaming.chunks": self.info["chunks"],
            "streaming.halos": self.info["halos"],
            "streaming.peak_resident_particles": self.info["peak_resident_particles"],
            "streaming.vs_memory_wall": wall_s / reference["memory_wall_s"],
            "streaming.vs_memory_rss": rss_mb / reference["memory_rss_mb"],
            "io.slab_write_s": reference["slab_write_s"],
        }
        with spans.span("streaming.read"):
            chunks = list(GenericIOStream(self.path, chunk_rows=CHUNK_ROWS))
        out["streaming.read_s"] = spans.total("streaming.read")
        with spans.span("streaming.fof"):
            finder = StreamingFOF(reference["box"], LINKING_LENGTH, min_count=STREAM_MIN_COUNT)
            for chunk in chunks:
                finder.ingest(chunk["pos"], chunk["tag"])
            finder.finalize()
        out["streaming.fof_s"] = spans.total("streaming.fof")

        def drain(verify: bool) -> None:
            for _ in GenericIOFile(self.path).iter_chunks(CHUNK_ROWS, verify=verify):
                pass

        with spans.span("io.read_verified"):
            verified = timed_median(lambda: drain(True), 3)
        with spans.span("io.read_unverified"):
            unverified = timed_median(lambda: drain(False), 3)
        out["io.read_mb_per_s"] = reference["payload_bytes"] / 1e6 / verified
        out["io.crc_s"] = verified - unverified

        first = chunks[0]
        with spans.span("analysis.fof_grid"):
            found = fof_grid(
                first["pos"], LINKING_LENGTH, tags=first["tag"], min_count=STREAM_MIN_COUNT
            )
        out["analysis.fof_grid_s"] = spans.total("analysis.fof_grid")
        out["analysis.fof_mparts_per_s"] = len(first["tag"]) / 1e6 / out["analysis.fof_grid_s"]
        out["analysis.fof_halos"] = found.n_halos
        return out


# -- campaign-2k -----------------------------------------------------------------

#: what one flush costs on the stand-in device: the floor of ``os.fsync`` on
#: the development box's disk (p10 of 500 flushes read 0.15-0.2 ms all day)
FLUSH_LATENCY_S = 150e-6


class FlushDevice:
    """``os.fsync`` / ``os.fdatasync`` inside a ``with`` block: counted, timed,
    and either the real call or a stand-in of fixed latency.

    On a shared host the virtual disk sets the real call's latency, and it
    moves by a factor of four from one run to the next (bench/README.md,
    "Deviations"), which buries the store under it: 14 006 flushes are two
    thirds of a ``campaign-2k`` iteration.  The timed iterations therefore
    flush to a *modelled* device — every flush the program asks for
    busy-waits ``FLUSH_LATENCY_S`` — so ``wall_s`` moves with the number of
    flushes and with the program's own work, not with the host.  The traced
    pass runs one iteration against the real device (``service.fsync_wait_s``).

    The wait holds the GIL (a sleep of that length overshoots by 60 % and
    jitters); the store is single-threaded today.
    """

    def __init__(self, modelled: bool) -> None:
        self.modelled = modelled
        self.count = 0
        self.seconds = 0.0

    def __enter__(self) -> "FlushDevice":
        self._saved = (os.fsync, os.fdatasync)
        os.fsync = self._wrap(os.fsync)
        os.fdatasync = self._wrap(os.fdatasync)
        return self

    def __exit__(self, *exc: Any) -> None:
        os.fsync, os.fdatasync = self._saved

    def _wrap(self, real: Any) -> Any:
        clock = time.perf_counter

        def flush(fd: int) -> None:
            t0 = clock()
            if self.modelled:
                while clock() - t0 < FLUSH_LATENCY_S:
                    pass
            else:
                real(fd)
            self.count += 1
            self.seconds += clock() - t0

        return flush


class CampaignWorkload(Workload):
    name = "campaign-2k"
    CAMPAIGN = "bench"
    RESUMES = 3

    def __init__(self, seed: int, workdir: str, quick: bool) -> None:
        super().__init__(seed, workdir, quick)
        from repro.service import JobSpec

        self.n_jobs = 200 if quick else 2000
        self.ops = self.n_jobs
        self.units = float(self.n_jobs)
        salt = np.random.default_rng(seed).integers(0, 2**31, self.n_jobs)
        self.size = f"{self.n_jobs} jobs, {self.RESUMES} resumes"
        # wall_estimate is a float on purpose: a replayed store reads it back
        # as one, and fingerprint() tells 10 from 10.0
        self.specs = [
            JobSpec(
                name=f"job{i:05d}",
                kind="noop",
                params={"i": i, "salt": int(salt[i])},
                n_nodes=1 + i % 4,
                wall_estimate=float(10 + i % 7),
            )
            for i in range(self.n_jobs)
        ]

    def setup(self) -> Any:
        _, product = self.run_once(Spans(self.name))
        _, problems = self.verify(product, None)
        if problems:
            raise RuntimeError(f"warm-up product rejected: {problems}")
        return self.reference_of(product)

    def run_once(self, spans: Spans) -> tuple[float, Any]:
        with FlushDevice(modelled=True):
            return self._campaign(spans)

    def _campaign(self, spans: Spans) -> tuple[float, Any]:
        from repro.machines.machine import TITAN
        from repro.service import CampaignService, CampaignStore

        root = self.fresh_dir("store")
        t0 = time.perf_counter()
        with spans.span("service.create"):
            svc = CampaignService.create(root, seed=self.seed)
        with spans.span("service.submit"):
            svc.submit(self.CAMPAIGN, self.specs, seed=self.seed)
        with spans.span("service.pack"):
            allocations = svc.pack(max_nodes=32, max_wall=120.0)
        with spans.span("service.drain"):
            makespan = svc.schedule(TITAN, allocations)
        store = svc.store
        product: dict[str, Any] = {
            "statuses": [svc.status()],
            "fingerprints": [store.fingerprint()],
            "allocations": len(allocations),
            "makespan": makespan,
            "job_ms": [1e3 * _lifecycle_seconds(j.history) for j in store.jobs.values()],
            "attempts": sum(j.attempts for j in store.jobs.values()),
            "dead_letters": store.dead_letter.total,
            "resume_s": [],
        }
        store.close()
        for _ in range(self.RESUMES):
            t1 = time.perf_counter()
            with spans.span("service.open"):
                store = CampaignStore.open(root)
            with spans.span("service.recover"):
                store.recover()
            product["statuses"].append(store.status())
            with spans.span("service.fingerprint"):
                product["fingerprints"].append(store.fingerprint())
            store.close()
            product["resume_s"].append(time.perf_counter() - t1)
        wall = time.perf_counter() - t0
        product["products"] = len(os.listdir(store.products_dir))
        with open(store.jobs_path, "rb") as fh:
            product["records"] = sum(1 for _ in fh)
        product["journal_bytes"] = os.path.getsize(store.jobs_path)
        # the store stays on disk until the launcher removes the scratch
        # directory: 2 000 unlinks here would ride the next iteration's fsyncs
        return wall, product

    def reference_of(self, product: dict[str, Any]) -> str:
        return product["fingerprints"][0]

    def verify(self, product: dict[str, Any], reference: str | None) -> tuple[int, list[str]]:
        problems = []
        expected = {self.CAMPAIGN: {"JOB_FINISHED": self.n_jobs}}
        if any(status != expected for status in product["statuses"]):
            problems.append(f"campaign statuses {product['statuses']}")
        finished = min(
            s.get(self.CAMPAIGN, {}).get("JOB_FINISHED", 0) for s in product["statuses"]
        )
        if product["products"] != self.n_jobs:
            problems.append(f"{product['products']} products on disk, not {self.n_jobs}")
        if len(set(product["fingerprints"])) != 1:
            problems.append("fingerprint changed between close and a reopen")
        if reference is not None and product["fingerprints"][0] != reference:
            problems.append("fingerprint differs from the first iteration's")
        self.retries += product["attempts"]
        self.dead_letters += product["dead_letters"]
        self.last = product
        self.info = {
            "allocations": product["allocations"],
            "makespan_sim_s": product["makespan"],
            "records": product["records"],
        }
        return self.n_jobs - finished, problems

    def sabotage(self, product: dict[str, Any]) -> None:
        counts = product["statuses"][0][self.CAMPAIGN]
        counts["JOB_FINISHED"] -= 1
        counts["RUNNING"] = counts.get("RUNNING", 0) + 1

    def layers(self, spans: Spans, wall_s: float, reference: str) -> dict[str, float]:
        from repro.machines.machine import TITAN
        from repro.machines.scheduler import Job, Scheduler

        last = self.last
        drain_s = spans.median("service.drain")
        job_ms = np.asarray(last["job_ms"])

        # one iteration against the real device, spans off: what the
        # modelled flushes of the timed iterations cost on this disk today
        with FlushDevice(modelled=False) as device:
            device_wall_s, product = self._campaign(Spans(self.name))
        _, problems = self.verify(product, reference)
        if problems:
            raise RuntimeError(f"real-device product rejected: {problems}")

        probe_dir = self.fresh_dir("fsync-probe")
        line = b"x" * 159 + b"\n"
        with spans.span("service.fsync_probe"):
            with open(os.path.join(probe_dir, "probe.jsonl"), "ab") as fh:
                for _ in range(200):
                    fh.write(line)
                    fh.flush()
                    os.fsync(fh.fileno())
        probe_s = spans.total("service.fsync_probe") / 200

        scheduler = Scheduler(TITAN)
        for i in range(1000):
            scheduler.submit(Job(name=f"s{i}", n_nodes=1 + i % 4, duration=float(10 + i % 7)))
        with spans.span("machines.scheduler_run"):
            scheduler.run()

        return {
            "service.submit_s": spans.median("service.submit"),
            "service.pack_ms": 1e3 * spans.median("service.pack"),
            "service.drain_s": drain_s,
            "service.open_ms": 1e3 * spans.median("service.open"),
            "service.recover_ms": 1e3 * spans.median("service.recover"),
            "service.fingerprint_ms": 1e3 * spans.median("service.fingerprint"),
            "service.resume_s": statistics.median(last["resume_s"]),
            "service.records": last["records"],
            "service.journal_bytes": last["journal_bytes"],
            "service.allocations": last["allocations"],
            "service.makespan_sim_s": last["makespan"],
            "service.transition_us": 1e6 * drain_s / (6 * self.n_jobs),
            "service.fsync_probe_ms": 1e3 * probe_s,
            "service.fsyncs": device.count,
            "service.fsync_wait_s": device.seconds,
            "service.device_wall_s": device_wall_s,
            "service.fsync_share": device.seconds / device_wall_s,
            "service.job_p50_ms": float(np.percentile(job_ms, 50)),
            "service.job_p90_ms": float(np.percentile(job_ms, 90)),
            "service.job_p99_ms": float(np.percentile(job_ms, 99)),
            "machines.sched_jobs_per_s": 1000 / spans.total("machines.scheduler_run"),
        }


def _lifecycle_seconds(history: list[tuple[str, float]]) -> float:
    """First ``STAGED_IN`` to ``JOB_FINISHED``, from the store's own wall stamps."""
    staged = next(w for s, w in history if s == "STAGED_IN")
    finished = next(w for s, w in reversed(history) if s == "JOB_FINISHED")
    return finished - staged


def make_workload(name: str, seed: int, workdir: str, quick: bool) -> Workload:
    if name in ("sim-bound-64", "analysis-bound-48"):
        return WorkflowWorkload(name, seed, workdir, quick)
    if name == "stream-1m":
        return StreamWorkload(seed, workdir, quick)
    if name == "campaign-2k":
        return CampaignWorkload(seed, workdir, quick)
    raise ValueError(f"unknown workload {name!r}")
