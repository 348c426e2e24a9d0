"""Concrete CosmoTools algorithms against a live mini-simulation."""

import os

import numpy as np
import pytest

from repro.insitu import (
    HaloCenterAlgorithm,
    HaloFinderAlgorithm,
    InSituAnalysisManager,
    Level1WriterAlgorithm,
    Level2WriterAlgorithm,
    PowerSpectrumAlgorithm,
    SOMassAlgorithm,
    SubhaloFinderAlgorithm,
    tag_index_map,
)
from repro.insitu.algorithm import AnalysisContext
from repro.io import GenericIOFile
from repro.machines.staging import StagingArea
from repro.sim import BYTES_PER_PARTICLE


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """One mini run with the full algorithm pipeline at the final step."""
    from repro.sim import HACCSimulation, SimulationConfig

    out = tmp_path_factory.mktemp("spool")
    mgr = InSituAnalysisManager()
    last = 20
    mgr.register(PowerSpectrumAlgorithm(at_steps=last))
    mgr.register(
        HaloFinderAlgorithm(at_steps=last, min_count=40, n_ranks=4)
    )
    mgr.register(HaloCenterAlgorithm(at_steps=last, threshold=200))
    mgr.register(SubhaloFinderAlgorithm(at_steps=last, min_parent=150, min_size=15))
    mgr.register(SOMassAlgorithm(at_steps=last))
    mgr.register(Level1WriterAlgorithm(at_steps=last, output_dir=str(out), n_ranks=4))
    mgr.register(Level2WriterAlgorithm(at_steps=last, output_dir=str(out)))
    sim = HACCSimulation(
        SimulationConfig(np_per_dim=24, box=40.0, z_initial=30.0, n_steps=last, ng=48),
        analysis_manager=mgr,
    )
    sim.run()
    return sim, mgr.history[last]


def test_tag_index_map_inverse():
    tags = np.asarray([3, 0, 2, 1], dtype=np.uint64)
    m = tag_index_map(tags)
    assert np.array_equal(m[tags], np.arange(4))


def test_fof_results_stored(analyzed):
    sim, ctx = analyzed
    fof = ctx.store["fof"]
    assert len(fof["halos"]) > 0
    assert set(fof["owner_rank"]) == set(fof["halos"])
    assert all(len(m) >= 40 for m in fof["halos"].values())
    assert len(ctx.timings["halo_finder_rank_seconds"]) == 4


def test_fof_membership_tags_valid(analyzed):
    sim, ctx = analyzed
    n = len(sim.particles)
    for tag, members in ctx.store["fof"]["halos"].items():
        assert members.min() >= 0 and members.max() < n
        assert tag == members.min()


def test_center_split_respects_threshold(analyzed):
    sim, ctx = analyzed
    fof = ctx.store["fof"]
    cen = ctx.store["centers"]
    for tag in cen["offloaded_halo_tags"]:
        assert len(fof["halos"][tag]) > 200
    for rec in cen["catalog"].records:
        assert rec["count"] <= 200


def test_centers_are_halo_members(analyzed):
    sim, ctx = analyzed
    fof = ctx.store["fof"]
    for rec in ctx.store["centers"]["catalog"].records:
        assert rec["mbp_tag"] in fof["halos"][int(rec["halo_tag"])]


def _rerun(alg, sim, ctx, *upstream):
    """Execute ``alg`` in a fresh context seeded with ``ctx``'s upstream products."""
    fresh = AnalysisContext(step=ctx.step, a=ctx.a, store={k: ctx.store[k] for k in upstream})
    alg.execute(sim, fresh)
    return fresh


def test_center_catalog_is_independent_of_worker_count(analyzed):
    """``workers`` is a width: same rows, same order, same per-rank pair work."""
    sim, ctx = analyzed
    ref = ctx.store["centers"]["catalog"]  # the fixture ran at workers=None
    assert len(ref) > 0
    wide = _rerun(HaloCenterAlgorithm(threshold=200, workers=2), sim, ctx, "fof")
    got = wide.store["centers"]["catalog"]
    assert np.array_equal(ref.records, got.records)  # every column, in row order
    offloaded = ctx.store["centers"]["offloaded_halo_tags"]
    assert wide.store["centers"]["offloaded_halo_tags"] == offloaded
    assert wide.timings["center_rank_pairs"] == ctx.timings["center_rank_pairs"]
    assert sum(ctx.timings["center_rank_pairs"]) > 0
    assert len(wide.timings["center_rank_seconds"]) == 4


def test_subhalos_are_independent_of_worker_count(analyzed):
    sim, ctx = analyzed
    ref = ctx.store["subhalos"]["by_halo"]  # the fixture ran at workers=None
    assert len(ref) > 0
    wide = _rerun(
        SubhaloFinderAlgorithm(min_parent=150, min_size=15, workers=2), sim, ctx, "fof"
    )
    got = wide.store["subhalos"]["by_halo"]
    assert list(got) == list(ref)  # same parents, same order
    for tag in ref:
        assert np.array_equal(ref[tag].labels, got[tag].labels)
        assert np.array_equal(ref[tag].subhalo_sizes, got[tag].subhalo_sizes)
    assert len(wide.timings["subhalo_rank_seconds"]) == 4
    assert sum(wide.timings["subhalo_rank_seconds"]) > 0


def test_power_spectrum_stored(analyzed):
    _, ctx = analyzed
    ps = ctx.store["power_spectrum"]
    assert len(ps.k) > 0
    assert np.all(ps.power[ps.k < ps.nyquist / 4] > 0)


def test_subhalos_only_large_parents(analyzed):
    sim, ctx = analyzed
    fof = ctx.store["fof"]
    sub = ctx.store["subhalos"]
    for tag in sub["by_halo"]:
        assert len(fof["halos"][tag]) > 150


def test_so_mass_per_insitu_halo(analyzed):
    _, ctx = analyzed
    cen = ctx.store["centers"]
    som = ctx.store["so_mass"]
    assert set(som) == set(int(t) for t in cen["catalog"]["halo_tag"])
    for res in som.values():
        assert res.mass >= 1.0


def test_level1_file_size(analyzed):
    sim, ctx = analyzed
    l1 = ctx.store["level1"]
    gio = GenericIOFile(l1["path"])
    assert gio.num_blocks == 4
    total_rows = sum(gio.block_rows(b) for b in range(4))
    assert total_rows == len(sim.particles)
    # wire size ~ 36 B/particle (pos 12 + vel 12 + tag 8 + mask 4)
    assert l1["bytes"] == len(sim.particles) * BYTES_PER_PARTICLE


def test_level2_contains_only_offloaded(analyzed):
    sim, ctx = analyzed
    l2 = ctx.store["level2"]
    offloaded = set(ctx.store["centers"]["offloaded_halo_tags"])
    data = GenericIOFile(l2["path"]).read_all()
    assert set(np.unique(data["halo_tag"]).tolist()) == offloaded
    fof = ctx.store["fof"]
    expected_particles = sum(len(fof["halos"][t]) for t in offloaded)
    assert l2["n_particles"] == expected_particles


def test_level2_writer_and_stager_emit_the_same_blocks(analyzed, tmp_path):
    """One writer, two sinks: a spool directory and a staging area given
    as ``output_dir`` hold the same product name and array-equal
    per-rank blocks for the same context."""
    sim, ctx = analyzed
    written = _rerun(Level2WriterAlgorithm(output_dir=str(tmp_path)), sim, ctx, "fof", "centers")
    area = StagingArea()
    staged = _rerun(Level2WriterAlgorithm(output_dir=area), sim, ctx, "fof", "centers")

    l2w, l2s = written.store["level2"], staged.store["level2"]
    assert os.path.basename(l2w["path"]) == l2s["path"] == f"l2_step{ctx.step:04d}.gio"
    assert l2w["halo_tags"] == l2s["halo_tags"] == ctx.store["centers"]["offloaded_halo_tags"]
    assert l2w["n_particles"] == l2s["n_particles"] > 0
    assert "level2_write_seconds" in staged.timings
    gio = GenericIOFile(l2w["path"])
    blocks = area.get(l2s["path"]).blocks
    assert gio.num_blocks == len(blocks) == 4
    for rank, block in enumerate(blocks):
        on_disk = gio.read_block(rank)
        assert set(on_disk) == set(block) == {"pos", "vel", "tag", "halo_tag"}
        for name, column in block.items():
            assert np.array_equal(on_disk[name], column), (rank, name)
            assert on_disk[name].dtype == column.dtype


def test_level2_reduction_factor(analyzed):
    sim, ctx = analyzed
    l1 = ctx.store["level1"]
    l2 = ctx.store["level2"]
    assert l2["bytes"] < l1["bytes"]


def test_scheduling_mixin_every():
    alg = PowerSpectrumAlgorithm(every=5)
    fires = [s for s in range(1, 21) if alg.should_execute(s, 0.5)]
    assert fires == [5, 10, 15, 20]


def test_scheduling_mixin_default_always():
    alg = PowerSpectrumAlgorithm()
    assert alg.should_execute(1, 0.1) and alg.should_execute(99, 0.9)
