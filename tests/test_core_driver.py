"""Live combined-workflow driver: end-to-end integration tests."""

import hashlib
import os

import numpy as np
import pytest

from repro.core import driver, offline_center_job, run_combined_workflow
from repro.sim import SimulationConfig


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig(np_per_dim=20, box=36.0, z_initial=30.0, n_steps=16)


@pytest.fixture(scope="module")
def simple_run(small_config, tmp_path_factory):
    spool = tmp_path_factory.mktemp("spool_simple")
    return run_combined_workflow(
        small_config, spool, threshold=250, min_count=40, n_ranks=4
    )


def test_catalog_complete(simple_run):
    """Merged catalog covers every halo exactly once."""
    tags = simple_run.catalog["halo_tag"]
    assert len(tags) == len(np.unique(tags))
    assert len(simple_run.catalog) == len(simple_run.insitu_catalog) + len(
        simple_run.offline_catalog
    )


def test_offloaded_halos_analyzed_offline(simple_run):
    off_tags = set(simple_run.offloaded_halo_tags)
    assert set(int(t) for t in simple_run.offline_catalog["halo_tag"]) == off_tags
    for rec in simple_run.offline_catalog.records:
        assert rec["count"] > 250
    for rec in simple_run.insitu_catalog.records:
        assert rec["count"] <= 250


def test_level2_files_written(simple_run):
    assert len(simple_run.level2_paths) == 1
    assert os.path.exists(simple_run.level2_paths[0])


def test_coscheduled_produces_identical_results(small_config, tmp_path_factory, simple_run):
    spool = tmp_path_factory.mktemp("spool_cosched")
    cosched = run_combined_workflow(
        small_config, spool, threshold=250, min_count=40, n_ranks=4, coschedule=True
    )
    assert np.array_equal(cosched.catalog.records, simple_run.catalog.records)
    assert cosched.listener_stats.jobs_submitted >= 1


def test_combined_equals_full_insitu(small_config, tmp_path_factory, simple_run):
    """Workflow correctness: splitting the center finding must not change
    any center (the paper's final merge step reconciles to the same
    catalog a full in-situ run would produce)."""
    spool = tmp_path_factory.mktemp("spool_insitu")
    full = run_combined_workflow(
        small_config, spool, threshold=10**9, min_count=40, n_ranks=4
    )
    assert len(full.offloaded_halo_tags) == 0
    assert np.array_equal(
        full.catalog.records["halo_tag"], simple_run.catalog.records["halo_tag"]
    )
    assert np.array_equal(
        full.catalog.records["mbp_tag"], simple_run.catalog.records["mbp_tag"]
    )
    assert np.allclose(
        full.catalog.records["potential"], simple_run.catalog.records["potential"]
    )


def test_offline_center_job_single_block(simple_run):
    """The Moonlight pattern: analyzing one block at a time still yields
    centers for the block's halos."""
    path = simple_run.level2_paths[0]
    from repro.io import GenericIOFile

    gio = GenericIOFile(path)
    per_block = []
    for b in range(gio.num_blocks):
        cat = offline_center_job(path, block=b)
        per_block.append(cat)
    total = sum(len(c) for c in per_block)
    assert total == len(simple_run.offline_catalog)


def test_offline_center_job_empty_file(tmp_path):
    from repro.io import write_genericio

    path = tmp_path / "l2_step0000.gio"
    write_genericio(
        path,
        [
            {
                "pos": np.empty((0, 3), dtype=np.float32),
                "vel": np.empty((0, 3), dtype=np.float32),
                "tag": np.empty(0, dtype=np.uint64),
                "halo_tag": np.empty(0, dtype=np.int64),
            }
        ],
    )
    cat = offline_center_job(path)
    assert len(cat) == 0


def test_centers_from_level2_counts_match_membership():
    """The vectorized per-halo particle counts (one np.unique pass, not a
    per-tag scan) must equal exact membership sizes, in result order."""
    from repro.core.driver import centers_from_level2_arrays

    rng = np.random.default_rng(99)
    sizes = {11: 60, 5: 45, 42: 80, 7: 52}
    pos_parts, tag_parts, halo_parts = [], [], []
    next_tag = 0
    for halo, n in sizes.items():
        center = rng.uniform(2, 18, 3)
        pos_parts.append(rng.normal(center, 0.2, (n, 3)))
        tag_parts.append(np.arange(next_tag, next_tag + n, dtype=np.int64))
        halo_parts.append(np.full(n, halo, dtype=np.int64))
        next_tag += n
    data = {
        "pos": np.concatenate(pos_parts),
        "tag": np.concatenate(tag_parts),
        "halo_tag": np.concatenate(halo_parts),
    }
    cat = centers_from_level2_arrays(data)
    assert len(cat) == len(sizes)
    got = {int(r["halo_tag"]): int(r["count"]) for r in cat.records}
    assert got == sizes


def _l3_digest(result):
    return hashlib.sha256(result.catalog.records.tobytes()).hexdigest()


def test_pipelined_and_inline_runs_give_one_l3_digest(
    small_config, tmp_path_factory, simple_run, monkeypatch
):
    """Analysis at every second step overlaps the next steps (the default);
    its Level 3 product equals the final-step-only run's, which stays
    inline, and the same steps run with the pipeline switched off."""
    built = []

    class CountingManager(driver.AsyncInSituManager):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(driver, "AsyncInSituManager", CountingManager)
    steps = list(range(2, small_config.n_steps + 1, 2))
    runs = {}
    for name, pipeline in (("pipelined", True), ("inline", False)):
        runs[name] = run_combined_workflow(
            small_config,
            tmp_path_factory.mktemp(f"spool_{name}"),
            threshold=250,
            min_count=40,
            n_ranks=4,
            pipeline_insitu=pipeline,
            analysis_steps=steps,
        )
        assert len(built) == 1  # only the pipelined run wraps its manager
    assert len(runs["pipelined"].level2_paths) == len(steps)
    assert _l3_digest(runs["pipelined"]) == _l3_digest(simple_run)
    assert _l3_digest(runs["inline"]) == _l3_digest(simple_run)


def test_process_ranks_keep_the_chain_inline(small_config, tmp_path, monkeypatch):
    """Forking rank worlds from the pipeline thread beside the PM threads
    is unsafe, so with process ranks the driver builds no pipeline."""

    def refuse(*args, **kwargs):
        raise AssertionError("AsyncInSituManager built for process ranks")

    monkeypatch.setattr(driver, "AsyncInSituManager", refuse)
    result = run_combined_workflow(
        small_config,
        tmp_path,
        threshold=250,
        min_count=40,
        n_ranks=2,
        spmd_transport="process",
        analysis_steps=[small_config.n_steps // 2, small_config.n_steps],
    )
    assert len(result.level2_paths) == 2
