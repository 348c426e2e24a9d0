"""Concrete CosmoTools algorithms.

The five analysis tasks of the paper's §4.1 plus the data writers:

1. :class:`PowerSpectrumAlgorithm` — CIC density + FFT P(k).
2. :class:`HaloFinderAlgorithm` — distributed FOF over simulated ranks.
3. :class:`HaloCenterAlgorithm` — MBP centers with the in-situ/off-load
   threshold split (the heart of the combined workflow).
4. :class:`SubhaloFinderAlgorithm` — subhalos for large parents.
5. :class:`SOMassAlgorithm` — spherical-overdensity masses at centers.

Writers: :class:`Level1WriterAlgorithm` (full raw snapshot, off-line
workflow) and :class:`Level2WriterAlgorithm` (particles of off-loaded
halos only, combined workflow — onto a Level 2 device,
:mod:`repro.machines.staging`).

Each algorithm records per-rank wall-clock times in the step's
:class:`~repro.insitu.algorithm.AnalysisContext`, which is how the
workflow engine measures the load imbalance the paper reports (Table 2,
Figure 4).
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np

from ..analysis.centers import halo_centers
from ..analysis.fof import parallel_fof
from ..analysis.power_spectrum import measure_power_spectrum
from ..analysis.so import so_masses_indexed
from ..exec import parallel_subhalos
from ..io.catalog import HaloCatalog
from ..io.genericio import write_genericio
from ..machines.staging import Level2Device, level2_device
from ..parallel.communicator import Communicator, run_spmd
from ..parallel.decomposition import CartesianDecomposition
from ..streaming.engine import StreamingAnalysis
from ..streaming.stream import ArrayStream
from .algorithm import AnalysisContext, InSituAlgorithm

__all__ = [
    "ALGORITHM_REGISTRY",
    "HaloCenterAlgorithm",
    "HaloFinderAlgorithm",
    "Level1WriterAlgorithm",
    "Level2WriterAlgorithm",
    "PowerSpectrumAlgorithm",
    "SOMassAlgorithm",
    "StreamingPreviewAlgorithm",
    "SubhaloFinderAlgorithm",
    "tag_index_map",
]


def tag_index_map(tags: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``map[tag] = index`` for dense uint64 tags."""
    tags = np.asarray(tags)
    out = np.empty(int(tags.max()) + 1 if len(tags) else 0, dtype=np.intp)
    out[tags] = np.arange(len(tags), dtype=np.intp)
    return out


class _Scheduled(InSituAlgorithm):
    """Scheduling mixin: run at listed steps, at an interval, or always."""

    at_steps: list[int] | int | None = None
    every: int | None = None

    def should_execute(self, step: int, a: float) -> bool:
        if self.at_steps is not None:
            steps = self.at_steps if isinstance(self.at_steps, list) else [self.at_steps]
            return step in steps
        if self.every is not None:
            return step > 0 and step % int(self.every) == 0
        return True


class PowerSpectrumAlgorithm(_Scheduled):
    """In-situ density-fluctuation power spectrum (paper §1).

    Parameters: ``ng`` (FFT mesh, default = simulation mesh), ``n_bins``.
    Stores a :class:`~repro.analysis.power_spectrum.PowerSpectrumResult`
    under ``"power_spectrum"``.
    """

    name = "power_spectrum"
    ng: int | None = None
    n_bins: int | None = None

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        ng = self.ng if self.ng is not None else sim.config.mesh_size
        result = measure_power_spectrum(
            sim.particles.pos, box=sim.config.box, ng=ng, n_bins=self.n_bins
        )
        context.store["power_spectrum"] = result


class HaloFinderAlgorithm(_Scheduled):
    """Distributed FOF halo identification (paper §3.3.1).

    Parameters
    ----------
    linking_length_factor:
        ``b`` in units of the mean interparticle separation (0.2 here
        and throughout cosmology, the HACC production value, unless
        ``linking_length`` overrides with an absolute length).
    min_count:
        Discard halos below this many particles.
    n_ranks:
        Simulated analysis ranks (the paper's Titan nodes).
    overload_factor:
        Overload width in linking lengths; must comfortably exceed the
        maximum halo extent over the linking length.
    transport:
        SPMD transport for the rank programs: ``"thread"`` (default,
        deterministic reference), ``"process"`` (one forked OS process
        per rank — real multi-core parallelism), or a full
        :class:`~repro.parallel.transport.SpmdConfig`.  Both produce
        bit-identical catalogs.

    Stores under ``"fof"``: ``halos`` (halo tag -> member particle
    tags), ``owner_rank`` (halo tag -> rank), ``counts``,
    ``rank_seconds`` (per-rank wall time: the Find column of Table 2).
    """

    name = "halo_finder"
    linking_length: float | None = None
    linking_length_factor: float = 0.2
    min_count: int = 40
    n_ranks: int = 8
    overload_factor: float = 8.0
    transport: Any = None

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        box = sim.config.box
        mean_sep = box / sim.config.np_per_dim
        ll = self.linking_length if self.linking_length else self.linking_length_factor * mean_sep
        overload = self.overload_factor * ll
        pos = np.asarray(sim.particles.pos, dtype=float)
        tags = np.asarray(sim.particles.tag, dtype=np.int64)
        decomp = CartesianDecomposition.for_ranks(box, self.n_ranks)
        # owner map computed once via the shared per-step cache (it used
        # to be rebuilt inside prog — i.e. n_ranks times per step)
        owners = context.shared_spatial(sim).owners(decomp)

        def prog(comm: Communicator) -> tuple[Any, float]:
            mine = owners == comm.rank
            t0 = time.perf_counter()
            halos = parallel_fof(
                comm,
                decomp,
                pos[mine],
                tags[mine],
                linking_length=ll,
                overload_width=overload,
                min_count=self.min_count,
            )
            return halos, time.perf_counter() - t0

        results = run_spmd(self.n_ranks, prog, transport=self.transport)
        halos: dict[int, np.ndarray] = {}
        owner_rank: dict[int, int] = {}
        rank_seconds = []
        for rank, (rhalos, secs) in enumerate(results):
            rank_seconds.append(secs)
            for tag, members in rhalos.items():
                halos[tag] = members
                owner_rank[tag] = rank
        context.store["fof"] = {
            "halos": halos,
            "owner_rank": owner_rank,
            "counts": {t: len(m) for t, m in halos.items()},
            "linking_length": ll,
            "n_ranks": self.n_ranks,
            "decomp": decomp,
        }
        context.timings["halo_finder_rank_seconds"] = rank_seconds


class HaloCenterAlgorithm(_Scheduled):
    """MBP center finding with the in-situ/off-load split (paper §4).

    Halos with at most ``threshold`` particles get centers in-situ;
    larger halos are flagged for off-loading.  Per-rank times are
    measured by executing each simulated rank's owned-halo workload and
    timing it (the Center column of Table 2; with ``threshold=None``
    everything is computed in-situ, the full-in-situ workflow).

    Stores under ``"centers"``: a :class:`HaloCatalog` of the in-situ
    centers, the list of off-loaded halo tags, and per-rank seconds.

    Each simulated rank's owned halos are one
    :func:`~repro.analysis.centers.halo_centers` batch on the
    :mod:`repro.exec` engine; ``workers`` is the width of that run
    (``None``/``1`` = inline on the in-situ thread) and changes neither
    the catalog nor its row order.
    """

    name = "halo_centers"
    threshold: int | None = 300_000
    softening: float = 1.0e-5
    workers: int | None = None

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        fof = context.require("fof")
        pos = np.asarray(sim.particles.pos, dtype=float)
        index_of = context.shared_spatial(sim).tag_index()
        halos: dict[int, np.ndarray] = fof["halos"]
        owner_rank: dict[int, int] = fof["owner_rank"]
        n_ranks: int = fof["n_ranks"]

        threshold = self.threshold if self.threshold is not None else np.inf
        offloaded = [t for t, m in halos.items() if len(m) > threshold]
        insitu_tags = [t for t, m in halos.items() if len(m) <= threshold]

        cat_tags: list[int] = []
        cat_counts: list[int] = []
        cat_centers: list[np.ndarray] = []
        cat_mbp: list[int] = []
        cat_phi: list[float] = []
        rank_seconds = np.zeros(n_ranks)
        rank_pairs = np.zeros(n_ranks, dtype=np.int64)

        by_rank: dict[int, list[int]] = {}
        for t in insitu_tags:
            by_rank.setdefault(owner_rank[t], []).append(t)

        for rank in range(n_ranks):
            t0 = time.perf_counter()
            rank_tags = by_rank.get(rank, [])
            if rank_tags:
                # the exec layer LPT-schedules (and slab-splits) the rank's
                # halos and returns them in ascending tag order; rows are
                # re-mapped so the catalog keeps FOF discovery order
                idx = np.concatenate([index_of[halos[t]] for t in rank_tags])
                member_tags = np.concatenate([halos[t] for t in rank_tags])
                labels = np.concatenate(
                    [np.full(len(halos[t]), t, dtype=np.int64) for t in rank_tags]
                )
                res = halo_centers(
                    pos[idx],
                    member_tags,
                    labels,
                    mass=sim.particles.particle_mass,
                    softening=self.softening,
                    workers=self.workers,
                )
                row_of = {int(t): i for i, t in enumerate(res.halo_tags)}
                for halo_tag in rank_tags:
                    i = row_of[int(halo_tag)]
                    cat_tags.append(halo_tag)
                    cat_counts.append(len(halos[halo_tag]))
                    cat_centers.append(res.centers[i])
                    cat_mbp.append(int(res.mbp_tags[i]))
                    cat_phi.append(float(res.potentials[i]))
                rank_pairs[rank] = int(res.stats.pair_evaluations)
            rank_seconds[rank] = time.perf_counter() - t0

        catalog = HaloCatalog.from_columns(
            halo_tag=np.asarray(cat_tags, dtype=np.uint64),
            count=np.asarray(cat_counts, dtype=np.int64),
            center=np.asarray(cat_centers) if cat_centers else np.empty((0, 3)),
            mbp_tag=np.asarray(cat_mbp, dtype=np.uint64),
            potential=np.asarray(cat_phi),
            particle_mass=sim.particles.particle_mass,
        )
        context.store["centers"] = {
            "catalog": catalog,
            "offloaded_halo_tags": sorted(offloaded),
            "threshold": self.threshold,
        }
        context.timings["center_rank_seconds"] = rank_seconds.tolist()
        context.timings["center_rank_pairs"] = rank_pairs.tolist()


class SubhaloFinderAlgorithm(_Scheduled):
    """Subhalo identification for large parent halos (paper §3.3.1/§4.2).

    Runs on parents above ``min_parent`` particles (paper: 5000 —
    "smaller halos will not exhibit much substructure").  Stores per-halo
    subhalo results and per-rank times; the workflow uses the latter for
    the subhalo imbalance result (8172 s vs 1457 s on 32 nodes).

    The whole parent batch is one :func:`repro.exec.parallel_subhalos`
    run of width ``workers`` (``None``/``1`` = inline); per-rank seconds
    are rebuilt from the engine's per-halo timings, so the imbalance
    metric does not depend on where a halo ran.
    """

    name = "subhalo_finder"
    min_parent: int = 5000
    k_density: int = 32
    min_size: int = 20
    workers: int | None = None

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        fof = context.require("fof")
        pos = np.asarray(sim.particles.pos, dtype=float)
        vel = np.asarray(sim.particles.vel, dtype=float)
        index_of = context.shared_spatial(sim).tag_index()
        halos: dict[int, np.ndarray] = fof["halos"]
        owner_rank: dict[int, int] = fof["owner_rank"]
        n_ranks: int = fof["n_ranks"]
        a = context.a
        cosmo = sim.cosmo
        box = sim.config.box
        rho_mean = len(pos) * sim.particles.particle_mass / box**3
        g_code = 3.0 * cosmo.omega_m / (8.0 * np.pi * a * rho_mean)

        # rank-major, FOF discovery order within a rank
        parents = sorted(
            (t for t, m in halos.items() if len(m) > self.min_parent),
            key=owner_rank.__getitem__,
        )
        batch = parallel_subhalos(
            pos,
            vel,
            {t: index_of[halos[t]] for t in parents},
            mass=sim.particles.particle_mass,
            g_constant=g_code,
            k_density=self.k_density,
            min_size=self.min_size,
            box=box,
            vel_scale=1.0 / a,  # proper peculiar velocity proxy
            workers=1 if self.workers is None else self.workers,
        )
        rank_seconds = np.zeros(n_ranks)
        for t in parents:
            rank_seconds[owner_rank[t]] += batch.halo_seconds[t]

        context.store["subhalos"] = {
            "by_halo": {t: batch.by_tag[t] for t in parents},
            "min_parent": self.min_parent,
        }
        context.timings["subhalo_rank_seconds"] = rank_seconds.tolist()


class SOMassAlgorithm(_Scheduled):
    """Spherical-overdensity masses seeded at the MBP centers (task 5).

    Candidate particles come from a periodic neighborhood sphere around
    each center (:func:`~repro.analysis.so.so_masses_indexed`), sized
    from the halo's FOF mass (the radius where the enclosed FOF mass
    would sit exactly at the ``Δ·ρ_mean`` threshold, doubled for margin)
    instead of scanning the whole box — and, unlike a members-only scan,
    the sphere also includes non-member ambient particles, which is the
    correct SO candidate set.  No sphere is smaller than two mean
    interparticle separations (rounded to tile the box).
    """

    name = "so_mass"
    delta: float = 200.0

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        centers = context.require("centers")
        fof = context.require("fof")
        catalog: HaloCatalog = centers["catalog"]
        pos = np.asarray(sim.particles.pos, dtype=float)
        box = sim.config.box
        m = sim.particles.particle_mass
        rho_mean = len(pos) * m / box**3

        recs = list(catalog.records)
        if not recs:
            context.store["so_mass"] = {}
            return

        mean_sep = box / max(round(len(pos) ** (1.0 / 3.0)), 1)
        min_radius = box / max(int(np.floor(box / (2.0 * mean_sep))), 1)
        halo_tags = [int(rec["halo_tag"]) for rec in recs]
        ctrs = np.asarray(
            [[rec["center_x"], rec["center_y"], rec["center_z"]] for rec in recs]
        )
        counts = np.asarray([fof["counts"][t] for t in halo_tags], dtype=float)
        # radius at which the halo's own FOF mass sits at the threshold
        # density; 2x margin so the first query usually converges
        r_est = (
            3.0 * counts * m / (4.0 * np.pi * self.delta * rho_mean)
        ) ** (1.0 / 3.0)
        initial = np.maximum(2.0 * r_est, 2.0 * min_radius)

        results = so_masses_indexed(
            pos,
            box,
            ctrs,
            particle_mass=m,
            reference_density=rho_mean,
            delta=self.delta,
            initial_radii=initial,
            min_radius=min_radius,
        )
        context.store["so_mass"] = dict(zip(halo_tags, results))


class Level1WriterAlgorithm(_Scheduled):
    """Write the full raw particle snapshot (Level 1) to storage.

    Used by the off-line workflow; one GenericIO block per simulated
    rank.  Stores the written path and byte count under ``"level1"``.
    """

    name = "level1_writer"
    output_dir: str = "."
    n_ranks: int = 8

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        pos = np.asarray(sim.particles.pos, dtype=np.float32)
        vel = np.asarray(sim.particles.vel, dtype=np.float32)
        tags = np.asarray(sim.particles.tag, dtype=np.uint64)
        mask = np.asarray(sim.particles.mask, dtype=np.uint32)
        decomp = CartesianDecomposition.for_ranks(sim.config.box, self.n_ranks)
        owners = context.shared_spatial(sim).owners(decomp)
        blocks = []
        for rank in range(self.n_ranks):
            sel = owners == rank
            blocks.append(
                {"pos": pos[sel], "vel": vel[sel], "tag": tags[sel], "mask": mask[sel]}
            )
        os.makedirs(self.output_dir, exist_ok=True)
        path = os.path.join(self.output_dir, f"l1_step{context.step:04d}.gio")
        nbytes = write_genericio(path, blocks)
        context.store["level1"] = {"path": path, "bytes": nbytes}


class Level2WriterAlgorithm(_Scheduled):
    """Write the off-loaded halos' particles (Level 2) to storage.

    The combined workflow's reduction step: only particles belonging to
    halos above the threshold are written ("we printed out all the
    particles that reside in halos with more than 300,000 particles to
    the file system — the resulting data was a factor of 5 less than the
    raw data").  Each owning rank contributes one block; the per-block
    layout is what lets the co-scheduled analysis jobs each read a
    single block (the Moonlight 128x128 scheme).

    ``output_dir`` is the Level 2 device, or a spool directory's path
    (:func:`~repro.machines.staging.level2_device`).  The product is
    named ``l2_step{step:04d}.gio`` and its device key (a spool's full
    file path) is recorded as ``path`` under ``"level2"``.
    """

    name = "level2_writer"
    output_dir: str | Level2Device = "."

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        fof = context.require("fof")
        offloaded = context.require("centers")["offloaded_halo_tags"]
        pos = np.asarray(sim.particles.pos, dtype=np.float32)
        vel = np.asarray(sim.particles.vel, dtype=np.float32)
        tags = np.asarray(sim.particles.tag, dtype=np.int64)
        index_of = context.shared_spatial(sim).tag_index()
        owner_rank = fof["owner_rank"]

        per_rank: dict[int, list[tuple[int, np.ndarray]]] = {}
        for halo_tag in offloaded:
            per_rank.setdefault(owner_rank[halo_tag], []).append(
                (halo_tag, fof["halos"][halo_tag])
            )
        blocks = []
        for rank in range(fof["n_ranks"]):
            parts = per_rank.get(rank, [])
            if parts:
                idx = np.concatenate([index_of[m] for _, m in parts])
                halo_ids = np.concatenate(
                    [np.full(len(m), t, dtype=np.int64) for t, m in parts]
                )
            else:
                idx = np.empty(0, dtype=np.intp)
                halo_ids = np.empty(0, dtype=np.int64)
            blocks.append(
                {
                    "pos": pos[idx],
                    "vel": vel[idx],
                    "tag": tags[idx].astype(np.uint64),
                    "halo_tag": halo_ids,
                }
            )
        device = level2_device(self.output_dir)
        t0 = time.perf_counter()
        path = device.put(f"l2_step{context.step:04d}.gio", blocks)
        context.store["level2"] = {
            "path": path,
            "bytes": sum(a.nbytes for b in blocks for a in b.values()),
            "n_particles": sum(len(b["tag"]) for b in blocks),
            "halo_tags": list(offloaded),
        }
        # the benchmark's insitu.l2_write_ms row reads this (the io.write /
        # staging.put span holds the same interval)
        context.timings["level2_write_seconds"] = time.perf_counter() - t0


class StreamingPreviewAlgorithm(_Scheduled):
    """Cheap preview-tier analysis via the one-pass streaming engine.

    The co-scheduling motivation (arXiv:2208.09190): many concurrent
    campaigns can afford a bounded-memory preview of every snapshot
    even when the full in-memory chain cannot be scheduled.  Runs
    :class:`~repro.streaming.engine.StreamingAnalysis` over a
    slab-ordered chunk view of the live particle snapshot and stores a
    compact summary — halo catalog, one-pass mass function, heavy-hitter
    halo masses — under ``"streaming_preview"``.

    Parameters: ``linking_length``/``linking_length_factor`` and
    ``min_count`` as for the halo finder; ``chunk_rows`` bounds resident
    state; ``mass_function_bins`` is the fixed ``(lo, hi, n_bins)``
    triple one-pass binning requires; ``heavy_hitter_k`` the sketch
    budget.
    """

    name = "streaming_preview"
    linking_length: float | None = None
    linking_length_factor: float = 0.2
    min_count: int = 40
    chunk_rows: int = 16384
    mass_function_bins: tuple[float, float, int] | None = None
    heavy_hitter_k: int = 16

    def execute(self, sim: Any, context: AnalysisContext) -> None:
        box = float(sim.config.box)
        mean_sep = box / sim.config.np_per_dim
        ll = self.linking_length if self.linking_length else self.linking_length_factor * mean_sep
        bins = self.mass_function_bins
        if bins is None:
            bins = (float(self.min_count), float(sim.config.np_per_dim**3), 32)
        stream = ArrayStream(
            np.asarray(sim.particles.pos, dtype=np.float64),
            box=box,
            tags=np.asarray(sim.particles.tag, dtype=np.int64),
            chunk_rows=self.chunk_rows,
        )
        engine = StreamingAnalysis(
            linking_length=ll,
            min_count=self.min_count,
            mass_function_bins=bins,
            heavy_hitter_k=self.heavy_hitter_k,
        )
        result = engine.run(stream)
        context.store["streaming_preview"] = {
            "halo_tags": result.catalog.halo_tags,
            "halo_counts": result.catalog.halo_counts,
            "n_halos": result.catalog.n_halos,
            "mass_function": result.mass_function,
            "heavy_hitters": result.heavy_hitters,
            "linking_length": ll,
            "n_chunks": result.n_chunks,
            "peak_resident_particles": result.peak_resident_particles,
        }


#: Config-section name -> algorithm class (used by
#: :meth:`repro.insitu.config.CosmoToolsConfig.build_manager`).
ALGORITHM_REGISTRY: dict[str, type[InSituAlgorithm]] = {
    "power_spectrum": PowerSpectrumAlgorithm,
    "halo_finder": HaloFinderAlgorithm,
    "halo_centers": HaloCenterAlgorithm,
    "subhalo_finder": SubhaloFinderAlgorithm,
    "so_mass": SOMassAlgorithm,
    "level1_writer": Level1WriterAlgorithm,
    "level2_writer": Level2WriterAlgorithm,
    "streaming_preview": StreamingPreviewAlgorithm,
}
