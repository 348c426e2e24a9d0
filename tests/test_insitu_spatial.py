"""Per-step neighborhood products: SO spheres, the step cache, the chain.

Covers the neighborhood SO path against the full-scan oracle, the
:class:`repro.insitu.spatial.SharedStepIndex` memoization contract, the
invariant that one analysis step builds each shared map once, and a
pinned digest of the in-situ chain's SO masses and subhalo labels.
"""

import hashlib

import numpy as np
import pytest

from scipy.spatial import cKDTree

from repro import obs
from repro.analysis import so_masses_indexed
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
from tests.oracles.so_reference import so_masses


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -- neighborhood SO masses ----------------------------------------------------


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
    got = so_masses_indexed(pos, box, centers, 1.0, rho, delta=200.0, min_radius=1.0)
    for a, b in zip(ref, got):
        assert a == b


def test_so_masses_indexed_retry_from_tiny_radius(rng):
    """A too-small initial radius must grow to the same converged answer."""
    pos, box = _clumpy_box(rng)
    rho = len(pos) / box**3
    centers = np.asarray([[5.0, 5.0, 5.0]])
    ref = so_masses(pos, centers, 1.0, rho, delta=200.0, box=box)[0]
    got = so_masses_indexed(
        pos, box, centers, 1.0, rho, delta=200.0, initial_radii=1e-3, min_radius=1.0
    )[0]
    assert got == ref


def test_so_masses_indexed_underdense_caps_at_half_box(rng):
    box = 12.0
    pos = rng.uniform(0, box, (300, 3))  # no overdense structure
    res = so_masses_indexed(pos, box, np.asarray([[6.0, 6.0, 6.0]]), 1.0,
                            reference_density=1e6, delta=200.0, min_radius=1.5)[0]
    assert not res.converged  # profile never reaches the threshold


def test_so_masses_indexed_particles_on_the_box_edge(rng):
    """Coordinates equal to ``box`` (given, or from ``np.mod(-1e-17, box)``)
    are legal input; the radii stay those of a full scan over the same
    ``np.mod`` values."""
    box = 10.0
    slab = rng.normal(5.0, 0.2, (300, 3))
    slab[:, 0] = -1e-17  # a clump flattened onto the x = 0 face
    pos = np.vstack([rng.uniform(0, box, (500, 3)), rng.normal(0, 0.2, (300, 3)), slab])
    pos[500:540, 0] = box
    assert np.any(np.mod(pos, box) == box)
    with pytest.raises(ValueError):
        cKDTree(np.mod(pos, box), boxsize=box)
    rho = len(pos) / box**3
    centers = np.asarray([[0.0, 0.0, 0.0], [0.1, 5.0, 5.0]])
    ref = so_masses(np.mod(pos, box), centers, 1.0, rho, delta=200.0, box=box)
    got = so_masses_indexed(pos, box, centers, 1.0, rho, delta=200.0, min_radius=0.5)
    assert got == ref
    assert all(r.converged and r.count > 100 for r in got)


def test_so_masses_indexed_needs_a_positive_min_radius(rng):
    with pytest.raises(ValueError, match="min_radius"):
        so_masses_indexed(rng.uniform(0, 4, (10, 3)), 4.0, np.zeros((1, 3)), 1.0,
                          1.0, min_radius=0.0)


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


# -- end-to-end: each shared map built once per analysis step ------------------


def test_chain_builds_each_shared_map_once_per_step(tmp_path):
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
        tag_builds = rec.counter("tag_index_builds_total").value
        tag_reuses = rec.counter("tag_index_reuses_total").value
        owner_builds = rec.counter("owner_map_builds_total").value

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


# -- pinned chain products -----------------------------------------------------


def _chain_digest(np_per_dim, box, ng):
    """sha256 over every SO result and every parent's subhalo labels/sizes."""
    last = 20
    mgr = InSituAnalysisManager()
    mgr.register(HaloFinderAlgorithm(at_steps=last, min_count=40, n_ranks=4))
    mgr.register(HaloCenterAlgorithm(at_steps=last, threshold=200))
    mgr.register(SubhaloFinderAlgorithm(at_steps=last, min_parent=150, min_size=15))
    mgr.register(SOMassAlgorithm(at_steps=last))
    sim = HACCSimulation(
        SimulationConfig(
            np_per_dim=np_per_dim, box=box, z_initial=30.0, n_steps=last, ng=ng
        ),
        analysis_manager=mgr,
    )
    sim.run()
    store = mgr.history[last].store
    assert store["so_mass"] and store["subhalos"]["by_halo"]
    h = hashlib.sha256()
    for tag, res in sorted(store["so_mass"].items()):
        h.update(repr((int(tag), res.radius, res.mass, res.count, res.converged)).encode())
    for tag, sub in sorted(store["subhalos"]["by_halo"].items()):
        h.update(repr(int(tag)).encode())
        h.update(np.asarray(sub.labels, dtype=np.int64).tobytes())
        h.update(np.asarray(sub.subhalo_sizes, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "np_per_dim, box, ng, digest",
    [
        (24, 40.0, 48, "72e865e166ca3d974d3106ee5dabf045580267027d81839847aef7a2e0b89c01"),
        (16, 30.0, 32, "7e0bed202d0a141c2ca527c8a1d9989e55c50d68941cf508d38685c81fa79493"),
    ],
)
def test_chain_products_are_pinned(np_per_dim, box, ng, digest):
    """SO masses and subhalo labels of the in-situ chain, pinned to the
    values the pure-Python k-NN and the periodic cell index produced."""
    assert _chain_digest(np_per_dim, box, ng) == digest
