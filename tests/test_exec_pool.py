"""Worker-pool reuse: warm workers across engine runs, identical results."""

import multiprocessing
import time

import numpy as np
import pytest

from repro import obs
from repro.check import sanitize
from repro.exec.engine import (
    ExecutionEngine,
    WorkerError,
    parallel_halo_centers,
    shutdown_pool,
)
from repro.exec.pool import WorkerPool
from tests.oracles.centers_reference import halo_centers_reference


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def _batch(seed=0, n=3000, halos=30):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), np.arange(n), rng.integers(0, halos, n)


def _no_children(deadline=5.0):
    end = time.monotonic() + deadline
    while multiprocessing.active_children() and time.monotonic() < end:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


def test_pool_reused_across_runs_with_counter():
    pos, tags, labels = _batch()
    with obs.telemetry() as rec:
        results = [parallel_halo_centers(pos, tags, labels, workers=2) for _ in range(3)]
        reuse = rec.metrics.as_dict().get("exec_pool_reuse_total", 0.0)
    assert reuse == 2.0  # first run forks, the next two reuse
    for r in results[1:]:
        assert np.array_equal(results[0].centers, r.centers)
        assert np.array_equal(results[0].mbp_tags, r.mbp_tags)


def test_pooled_results_bit_identical_to_serial():
    pos, tags, labels = _batch(seed=3)
    ref = halo_centers_reference(pos, tags, labels)
    parallel_halo_centers(pos, tags, labels, workers=2)  # warm the pool
    got = parallel_halo_centers(pos, tags, labels, workers=2)  # reused workers
    assert np.array_equal(ref.centers, got.centers)
    assert np.array_equal(ref.mbp_tags, got.mbp_tags)
    assert np.array_equal(ref.potentials, got.potentials)
    assert np.array_equal(ref.per_halo_pairs, got.per_halo_pairs) and ref.stats == got.stats


def test_pool_survives_worker_error():
    pos, tags, labels = _batch(seed=4)
    engine = ExecutionEngine(workers=2)
    counts = np.unique(labels, return_counts=True)[1].astype(np.int64)
    members = np.argsort(labels, kind="stable").astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    work = engine.build_queue(counts, splittable=False)
    with pytest.raises(WorkerError, match="explosion"):
        engine.run({"pos": pos, "members": members, "starts": starts}, work, {"task": "explode"})
    # the workers shipped the traceback and survived: the next batch reuses them
    with obs.telemetry() as rec:
        r = parallel_halo_centers(pos, tags, labels, workers=2)
        assert rec.metrics.as_dict().get("exec_pool_reuse_total", 0.0) == 1.0
    ref = halo_centers_reference(pos, tags, labels)
    assert np.array_equal(ref.centers, r.centers)


def test_bigger_job_replaces_small_pool():
    pos, tags, labels = _batch(seed=5)
    parallel_halo_centers(pos, tags, labels, workers=2)
    with obs.telemetry() as rec:
        parallel_halo_centers(pos, tags, labels, workers=3)  # needs more workers
        assert rec.metrics.as_dict().get("exec_pool_reuse_total", 0.0) == 0.0
        parallel_halo_centers(pos, tags, labels, workers=2)  # fits in the new pool
        assert rec.metrics.as_dict().get("exec_pool_reuse_total", 0.0) == 1.0


def test_shutdown_pool_reaps_workers():
    pos, tags, labels = _batch(seed=6)
    parallel_halo_centers(pos, tags, labels, workers=2)
    assert multiprocessing.active_children()  # warm pool is alive
    shutdown_pool()
    assert _no_children()


def test_no_shared_memory_leaks_across_pooled_runs(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitize.reset_leak_tracker()
    pos, tags, labels = _batch(seed=7)
    for _ in range(3):
        parallel_halo_centers(pos, tags, labels, workers=2)
    assert sanitize.leak_report() == []


def test_worker_pool_validates_and_closes_idempotently():
    with pytest.raises(ValueError):
        WorkerPool(0)
    pool = WorkerPool(1)
    assert pool.alive
    pool.close()
    pool.close()  # idempotent
    assert not pool.alive
    assert _no_children()
