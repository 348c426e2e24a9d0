"""The one process supervisor: fork safety and liveness on both users.

The exec worker pool and the process SPMD ranks fork, watch, abort and
reap through one ``repro.exec.supervisor.ProcessGroup``.  These tests
pin what used to need fixing in two places: a fork while another
thread holds the shared-memory resource tracker's lock, the
co-scheduled configuration that hung on it, and hard worker death on
the persistent pool (between jobs and mid-job).
"""

import glob
import hashlib
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro import obs
from repro.core import run_combined_workflow
from repro.exec import engine as exec_engine
from repro.exec import (
    ExecutionEngine,
    WorkerError,
    parallel_halo_centers,
    shutdown_pool,
)
from repro.parallel import SpmdConfig, run_spmd
from repro.sim import SimulationConfig
from tests.oracles.centers_reference import halo_centers_reference

# -- a deterministic tracker-lock holder at fork time --------------------------
#
# Registered after the fix's hooks (importing repro registers them), so it
# runs first: ``before`` hooks run in reverse registration order.  When
# armed, it makes another thread take the tracker's lock just before the
# fork and keep it for 0.3 s — the listener thread inside
# ``SharedMemory(create=True)`` at the wrong moment, every time.

_HOLD_TRACKER_LOCK_AT_FORK = False


def _tracker_lock_taken_by_another_thread():
    if not _HOLD_TRACKER_LOCK_AT_FORK:
        return
    lock = resource_tracker._resource_tracker._lock
    held = threading.Event()

    def hold():
        with lock:
            held.set()
            time.sleep(0.3)

    threading.Thread(target=hold, daemon=True).start()
    assert held.wait(timeout=5.0)


os.register_at_fork(before=_tracker_lock_taken_by_another_thread)


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def _no_children(deadline=5.0):
    end = time.monotonic() + deadline
    while multiprocessing.active_children() and time.monotonic() < end:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def test_fork_while_another_thread_holds_the_tracker_lock():
    global _HOLD_TRACKER_LOCK_AT_FORK

    def prog(comm):
        # 256 KiB per rank: above shm_threshold, so each rank creates a
        # segment and goes through the tracker
        return [a.copy() for a in comm.allgather(np.full(32768, float(comm.rank)))]

    resource_tracker.ensure_running()
    _HOLD_TRACKER_LOCK_AT_FORK = True
    try:
        got = run_spmd(2, prog, transport=SpmdConfig("process", timeout=2.0))
    finally:
        _HOLD_TRACKER_LOCK_AT_FORK = False
    for ranks in got:
        assert [float(a[0]) for a in ranks] == [0.0, 1.0]
    assert _no_children()


COSCHEDULED_CONFIG = SimulationConfig(np_per_dim=20, box=36.0, z_initial=30.0, n_steps=16)


def _coscheduled_digest(spool, transport):
    cfg = COSCHEDULED_CONFIG
    result = run_combined_workflow(
        cfg,
        spool,
        threshold=250,
        min_count=40,
        n_ranks=2,
        coschedule=True,
        analysis_workers=2,
        spmd_transport=transport,
        analysis_steps=list(range(2, cfg.n_steps + 1, 2)),
    )
    assert result.listener_stats.jobs_submitted >= 1
    return hashlib.sha256(result.catalog.records.tobytes()).hexdigest()


def test_coscheduled_process_ranks_match_thread_ranks(tmp_path):
    """Rank worlds forked on the main thread while the listener thread
    runs off-line jobs on the exec pool (shared memory on both sides):
    the configuration that hung 1 run in 25 at 48^3 before the fork
    hooks.  At this size the race is rare; CI repeats it as a drill."""
    process = _coscheduled_digest(tmp_path / "process", "process")
    thread = _coscheduled_digest(tmp_path / "thread", "thread")
    assert process == thread


def _batch(seed=11, n=3000, halos=30):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), np.arange(n), rng.integers(0, halos, n)


def test_killed_pool_worker_forces_a_fresh_pool():
    pos, tags, labels = _batch()
    parallel_halo_centers(pos, tags, labels, workers=2)  # warm the shared pool
    before = _shm_segments()
    victim = next(p for p in multiprocessing.active_children() if p.name == "exec-worker-1")
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)
    assert not victim.is_alive()
    with obs.telemetry() as rec:
        got = parallel_halo_centers(pos, tags, labels, workers=2)
        assert rec.metrics.as_dict().get("exec_pool_reuse_total", 0.0) == 0.0
    ref = halo_centers_reference(pos, tags, labels)
    assert np.array_equal(ref.centers, got.centers)
    assert np.array_equal(ref.mbp_tags, got.mbp_tags)
    assert _shm_segments() == before
    shutdown_pool()
    assert _no_children()


def _die(*args):
    os._exit(9)


def test_pool_worker_death_mid_job_is_named(monkeypatch):
    # the registry is inherited at fork, so the pool forked below has it
    monkeypatch.setitem(exec_engine._TASK_RUNNERS, "die", _die)
    before = _shm_segments()
    eng = ExecutionEngine(workers=2, result_timeout=60.0)
    work = eng.build_queue(np.asarray([100] * 6), splittable=False)
    arrays = {
        "pos": np.zeros((600, 3)),
        "members": np.arange(600, dtype=np.int64),
        "starts": np.arange(0, 700, 100, dtype=np.int64),
    }
    t0 = time.monotonic()
    with pytest.raises(WorkerError, match=r"died without reporting \(exitcode 9\)"):
        eng.run(arrays, work, {"task": "die"})
    assert time.monotonic() - t0 < 5.0  # one poll step, not the 60 s ceiling
    assert _shm_segments() == before
    # the dead pool is replaced, not reused
    pos, tags, labels = _batch(seed=12)
    with obs.telemetry() as rec:
        parallel_halo_centers(pos, tags, labels, workers=2)
        assert rec.metrics.as_dict().get("exec_pool_reuse_total", 0.0) == 0.0
