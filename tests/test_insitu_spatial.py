"""Shared per-step spatial structures: cell index, SO routing, step cache.

Covers :class:`repro.analysis.spatial_index.PeriodicCellIndex` against
brute force, the indexed SO path against the full-scan reference, the
:class:`repro.insitu.spatial.SharedStepIndex` memoization contract, and
the end-to-end invariant that one analysis step builds at most one
spatial index (``spatial_index_misses`` telemetry).
"""

import numpy as np
import pytest

from repro import obs
from repro.analysis import PeriodicCellIndex, so_masses, so_masses_indexed
from repro.insitu import (
    HaloCenterAlgorithm,
    HaloFinderAlgorithm,
    InSituAnalysisManager,
    Level1WriterAlgorithm,
    Level2WriterAlgorithm,
    SOMassAlgorithm,
    SubhaloFinderAlgorithm,
)
from repro.insitu.algorithm import AnalysisContext
from repro.insitu.spatial import SharedStepIndex
from repro.parallel.decomposition import CartesianDecomposition
from repro.sim import HACCSimulation, SimulationConfig


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def brute_radius(pos, box, center, r):
    d = pos - np.asarray(center)
    d -= box * np.round(d / box)
    return np.flatnonzero(np.einsum("ij,ij->i", d, d) <= r * r)


# -- PeriodicCellIndex ---------------------------------------------------------


@pytest.mark.parametrize("cell_size", [0.7, 1.3, 5.0])
def test_query_radius_matches_brute_force(rng, cell_size):
    box = 10.0
    pos = rng.uniform(0, box, (800, 3))
    index = PeriodicCellIndex(pos, box, cell_size)
    for center in [(0.1, 9.9, 5.0), (5.0, 5.0, 5.0), (9.99, 0.01, 0.5)]:
        for r in (0.4, 1.7, 3.2):
            got = index.query_radius(np.asarray(center), r)
            expected = brute_radius(index.pos, box, center, r)
            np.testing.assert_array_equal(got, expected)


def test_query_radius_whole_box(rng):
    box = 6.0
    pos = rng.uniform(0, box, (200, 3))
    index = PeriodicCellIndex(pos, box, 1.0)
    # radius beyond half the box: every particle is a candidate and the
    # exact filter keeps everything within sqrt(3)/2 * box
    got = index.query_radius(np.zeros(3), box)
    np.testing.assert_array_equal(got, np.arange(200))


def test_query_radius_sorted_and_deterministic(rng):
    box = 8.0
    pos = rng.uniform(0, box, (500, 3))
    index = PeriodicCellIndex(pos, box, 1.0)
    a = index.query_radius(np.asarray([4.0, 4.0, 4.0]), 2.0)
    b = index.query_radius(np.asarray([4.0, 4.0, 4.0]), 2.0)
    assert np.all(np.diff(a) > 0)
    np.testing.assert_array_equal(a, b)


def test_cell_members_partition(rng):
    box = 5.0
    pos = rng.uniform(0, box, (300, 3))
    index = PeriodicCellIndex(pos, box, 1.0)
    seen = np.concatenate(
        [index.cell_members(c) for c in range(index.ncell**3)]
    )
    assert len(seen) == 300
    np.testing.assert_array_equal(np.sort(seen), np.arange(300))


def test_empty_index_and_validation():
    index = PeriodicCellIndex(np.empty((0, 3)), 4.0, 1.0)
    assert len(index) == 0
    assert index.query_radius(np.zeros(3), 1.0).size == 0
    with pytest.raises(ValueError, match="pos must have shape"):
        PeriodicCellIndex(np.zeros((3, 2)), 4.0, 1.0)
    with pytest.raises(ValueError, match="box must be positive"):
        PeriodicCellIndex(np.zeros((1, 3)), 0.0, 1.0)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        PeriodicCellIndex(np.zeros((1, 3)), 4.0, 1.0).query_radius(np.zeros(3), -1)


def test_oversized_cell_size_degenerates_to_one_cell(rng):
    box = 3.0
    pos = rng.uniform(0, box, (50, 3))
    index = PeriodicCellIndex(pos, box, 100.0)
    assert index.ncell == 1
    got = index.query_radius(np.asarray([1.5, 1.5, 1.5]), 1.0)
    np.testing.assert_array_equal(got, brute_radius(index.pos, box, (1.5,) * 3, 1.0))


# -- indexed SO masses ---------------------------------------------------------


def _clumpy_box(rng, box=20.0):
    bg = rng.uniform(0, box, (4000, 3))
    clump = rng.normal(0, 0.3, (600, 3)) + 5.0
    wrapped = np.mod(rng.normal(0, 0.25, (400, 3)) + [19.5, 0.2, 10.0], box)
    return np.vstack([bg, clump, wrapped]), box


def test_so_masses_indexed_matches_full_scan(rng):
    pos, box = _clumpy_box(rng)
    rho = len(pos) / box**3
    centers = np.asarray([[5.0, 5.0, 5.0], [19.5, 0.2, 10.0]])
    ref = so_masses(pos, centers, 1.0, rho, delta=200.0, box=box)
    index = PeriodicCellIndex(pos, box, 1.0)
    got = so_masses_indexed(index, centers, 1.0, rho, delta=200.0)
    for a, b in zip(ref, got):
        assert a == b


def test_so_masses_indexed_retry_from_tiny_radius(rng):
    """A too-small initial radius must grow to the same converged answer."""
    pos, box = _clumpy_box(rng)
    rho = len(pos) / box**3
    centers = np.asarray([[5.0, 5.0, 5.0]])
    ref = so_masses(pos, centers, 1.0, rho, delta=200.0, box=box)[0]
    index = PeriodicCellIndex(pos, box, 1.0)
    got = so_masses_indexed(
        index, centers, 1.0, rho, delta=200.0, initial_radii=1e-3
    )[0]
    assert got == ref


def test_so_masses_indexed_underdense_caps_at_half_box(rng):
    box = 12.0
    pos = rng.uniform(0, box, (300, 3))  # no overdense structure
    index = PeriodicCellIndex(pos, box, 1.5)
    res = so_masses_indexed(index, np.asarray([[6.0, 6.0, 6.0]]), 1.0,
                            reference_density=1e6, delta=200.0)[0]
    assert not res.converged  # profile never reaches the threshold


# -- SharedStepIndex -----------------------------------------------------------


class _FakeParticles:
    def __init__(self, pos, tag, box):
        self.pos = pos
        self.tag = tag
        self.box = box


class _FakeSim:
    def __init__(self, particles):
        self.particles = particles


def _fake_sim(rng, n=200, box=10.0):
    pos = rng.uniform(0, box, (n, 3))
    tag = np.asarray(rng.permutation(n), dtype=np.uint64)
    return _FakeSim(_FakeParticles(pos, tag, box))


def test_shared_step_index_memoizes_and_counts(rng):
    sim = _fake_sim(rng)
    shared = SharedStepIndex(sim.particles)
    decomp = CartesianDecomposition.for_ranks(10.0, 8)
    with obs.telemetry() as rec:
        a = shared.cell_index()
        b = shared.cell_index()
        assert a is b
        assert rec.counter("spatial_index_misses").value == 1
        assert rec.counter("spatial_index_hits").value == 1

        t1 = shared.tag_index()
        t2 = shared.tag_index()
        assert t1 is t2
        np.testing.assert_array_equal(
            t1[sim.particles.tag], np.arange(len(sim.particles.pos))
        )
        assert rec.counter("tag_index_builds_total").value == 1
        assert rec.counter("tag_index_reuses_total").value == 1

        o1 = shared.owners(decomp)
        o2 = shared.owners(decomp)
        assert o1 is o2
        np.testing.assert_array_equal(
            o1, decomp.rank_of_position(sim.particles.pos)
        )
        assert rec.counter("owner_map_builds_total").value == 1
        assert rec.counter("owner_map_reuses_total").value == 1


def test_shared_step_index_distinct_keys_build_separately(rng):
    sim = _fake_sim(rng)
    shared = SharedStepIndex(sim.particles)
    assert shared.cell_index(1.0) is not shared.cell_index(2.0)
    d8 = CartesianDecomposition.for_ranks(10.0, 8)
    d4 = CartesianDecomposition.for_ranks(10.0, 4)
    assert shared.owners(d8) is not shared.owners(d4)


def test_context_shared_spatial_scoped_to_context(rng):
    sim = _fake_sim(rng)
    ctx = AnalysisContext(step=1, a=0.5)
    s1 = ctx.shared_spatial(sim)
    assert ctx.shared_spatial(sim) is s1
    # a new step gets a new context and therefore fresh structures
    assert AnalysisContext(step=2, a=0.6).shared_spatial(sim) is not s1


# -- end-to-end: one spatial index per analysis step ---------------------------


def test_chain_builds_at_most_one_spatial_index_per_step(tmp_path):
    analysis_steps = [6, 12]
    mgr = InSituAnalysisManager()
    mgr.register(HaloFinderAlgorithm(at_steps=analysis_steps, min_count=30, n_ranks=4))
    mgr.register(HaloCenterAlgorithm(at_steps=analysis_steps, threshold=150))
    mgr.register(
        SubhaloFinderAlgorithm(at_steps=analysis_steps, min_parent=120, min_size=15)
    )
    mgr.register(SOMassAlgorithm(at_steps=analysis_steps))
    mgr.register(
        Level1WriterAlgorithm(
            at_steps=analysis_steps, output_dir=str(tmp_path), n_ranks=4
        )
    )
    mgr.register(Level2WriterAlgorithm(at_steps=analysis_steps, output_dir=str(tmp_path)))
    sim = HACCSimulation(
        SimulationConfig(np_per_dim=16, box=30.0, z_initial=30.0, n_steps=12),
        analysis_manager=mgr,
    )
    with obs.telemetry() as rec:
        sim.run()
        spans = rec.tracer.snapshot()
        misses = rec.counter("spatial_index_misses").value
        tag_builds = rec.counter("tag_index_builds_total").value
        tag_reuses = rec.counter("tag_index_reuses_total").value
        owner_builds = rec.counter("owner_map_builds_total").value

    # the acceptance invariant: at most one cell-index build per step
    assert misses <= len(analysis_steps)
    # tag map: one build per step, shared by centers/subhalos/L2 writer
    assert tag_builds == len(analysis_steps)
    assert tag_reuses >= len(analysis_steps)  # at least one reuse per step
    # owner map: FOF + L1 writer share one build per step (same 4-rank grid)
    assert owner_builds == len(analysis_steps)

    # the writers' I/O is attributable from spans alone: each analysis
    # step's io.write spans sit under its writer span, inside that sim.step
    by_id = {sp.span_id: sp for sp in spans}
    writes = [sp for sp in spans if sp.name == "io.write"]
    assert len(writes) == 2 * len(analysis_steps)
    for sp in writes:
        writer = by_id[sp.parent_id]
        assert writer.name in ("insitu.level1_writer", "insitu.level2_writer")
        step = by_id[by_id[writer.parent_id].parent_id]
        assert step.name == "sim.step" and step.step == writer.step in analysis_steps
