"""Pluggable SPMD transports: thread/process equivalence and failure paths.

The process transport must be observationally identical to the thread
reference — same results bit-for-bit, same message statistics, same
error contract — with the only difference being *where* ranks run.
These tests pin that equivalence on the real communication patterns
(redistribution, overload exchange, distributed FOF) and on the ugly
paths (rank death mid-collective, timeouts, orphan/leak hygiene).
"""

import glob
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    CartesianDecomposition,
    SpmdConfig,
    SpmdError,
    alltoallv_arrays,
    redistribute_arrays,
    resolve_transport,
    run_spmd,
)
from repro.parallel.transport import TRANSPORT_ENV, RemoteRankError


@pytest.fixture(autouse=True, scope="module")
def _quiesce_exec_pool():
    # earlier test files may leave the warm exec worker pool alive;
    # reap it so active_children() is a clean orphan detector here
    from repro.exec import shutdown_pool

    shutdown_pool()
    yield


def _no_orphans():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


# ---------------------------------------------------------------------------
# configuration / selection
# ---------------------------------------------------------------------------


def test_spmd_config_validates_transport():
    with pytest.raises(ValueError, match="transport"):
        SpmdConfig(transport="mpi")


def test_resolve_transport_accepts_str_config_none(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV, raising=False)
    assert resolve_transport("process").transport == "process"
    cfg = SpmdConfig(transport="process", shm_threshold=1)
    assert resolve_transport(cfg) is cfg
    assert resolve_transport(None).transport == "thread"


def test_resolve_transport_env_var(monkeypatch):
    monkeypatch.setenv(TRANSPORT_ENV, "process")
    assert resolve_transport(None).transport == "process"
    monkeypatch.delenv(TRANSPORT_ENV)
    assert resolve_transport(None).transport == "thread"


def test_single_rank_is_inline_for_any_transport():
    # nranks == 1 never forks, whatever the transport says
    assert run_spmd(1, lambda comm: os.getpid(), transport="process") == [os.getpid()]


# ---------------------------------------------------------------------------
# thread/process equivalence on the real communication patterns
# ---------------------------------------------------------------------------


def _run_both(nranks, prog, **kw):
    """Run a program on both transports; assert no process orphans."""
    before = _shm_segments()
    thread = run_spmd(nranks, prog, transport="thread", **kw)
    process = run_spmd(nranks, prog, transport="process", **kw)
    assert _no_orphans()
    assert _shm_segments() == before, "process transport leaked shm segments"
    return thread, process


def test_process_ranks_are_real_processes():
    pids = run_spmd(2, lambda comm: os.getpid(), transport="process")
    assert len(set(pids)) == 2 and os.getpid() not in pids


def test_collectives_identical_across_transports():
    def prog(comm):
        part = np.arange(4, dtype=np.float64) + 10 * comm.rank
        total = comm.allreduce(float(part.sum()))
        gathered = comm.allgather(part)
        bcast = comm.bcast(part * 2 if comm.rank == 0 else None, root=0)
        return total, [g.copy() for g in gathered], bcast.copy()

    thread, process = _run_both(3, prog)
    for t, p in zip(thread, process):
        assert t[0] == p[0]
        assert all(np.array_equal(a, b) for a, b in zip(t[1], p[1]))
        assert np.array_equal(t[2], p[2])


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(8, 200))
def test_prop_redistribute_identical_across_transports(seed, n):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    tag = np.arange(n, dtype=np.uint64)

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(1.0, comm.size)
        mine = np.arange(comm.rank, n, comm.size)
        local, stats = redistribute_arrays(
            comm, decomp, {"pos": pos[mine], "tag": tag[mine]}
        )
        order = np.argsort(local["tag"])
        return local["pos"][order].copy(), local["tag"][order].copy(), stats.bytes_sent

    thread, process = _run_both(2, prog)
    for t, p in zip(thread, process):
        assert np.array_equal(t[0], p[0])
        assert np.array_equal(t[1], p[1])
        assert t[2] == p[2]


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_prop_alltoallv_identical_across_transports(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 50, size=(2, 2))  # ragged chunk sizes

    def prog(comm):
        local = np.random.default_rng(seed + comm.rank)
        chunks = [
            {"x": local.random((int(sizes[comm.rank][d]), 3))}
            for d in range(comm.size)
        ]
        received = alltoallv_arrays(comm, chunks)
        return [r["x"].copy() for r in received]

    thread, process = _run_both(2, prog)
    for t, p in zip(thread, process):
        assert all(np.array_equal(a, b) for a, b in zip(t, p))


def test_parallel_fof_identical_across_transports():
    from repro.analysis.fof import parallel_fof

    rng = np.random.default_rng(42)
    # clustered points so FOF finds real groups
    centers = rng.random((12, 3))
    pos = np.concatenate([c + 0.01 * rng.standard_normal((30, 3)) for c in centers])
    pos = np.mod(pos, 1.0)
    tags = np.arange(len(pos), dtype=np.uint64)

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(1.0, comm.size)
        mine = decomp.rank_of_position(pos) == comm.rank
        halos = parallel_fof(
            comm, decomp, pos[mine], tags[mine], linking_length=0.02,
            overload_width=0.06, min_count=10,
        )
        return {int(k): np.sort(v).copy() for k, v in halos.items()}

    thread, process = _run_both(2, prog)
    for t, p in zip(thread, process):
        assert sorted(t) == sorted(p)
        for k in t:
            assert np.array_equal(t[k], p[k])


def test_shm_payload_path_identical(tmp_path):
    # force every array through the shared-memory codec
    cfg = SpmdConfig(transport="process", shm_threshold=1)

    def prog(comm):
        big = np.arange(50_000, dtype=np.float64) * (comm.rank + 1)
        gathered = comm.allgather(big)
        return [g.sum() for g in gathered]

    before = _shm_segments()
    thread = run_spmd(2, prog, transport="thread")
    process = run_spmd(2, prog, transport=cfg)
    assert thread == process
    assert _no_orphans()
    assert _shm_segments() == before


def test_message_stats_match_thread_transport():
    def prog(comm):
        comm.send(np.ones(100), dest=(comm.rank + 1) % comm.size)
        comm.recv(source=(comm.rank - 1) % comm.size)
        comm.barrier()
        return comm.rank

    _, tworld = run_spmd(2, prog, transport="thread", return_world=True)
    _, pworld = run_spmd(2, prog, transport="process", return_world=True)
    assert pworld.messages_sent == tworld.messages_sent
    assert pworld.bytes_sent == tworld.bytes_sent


# ---------------------------------------------------------------------------
# failure paths (satellite: actionable barrier/abort errors on both sides)
# ---------------------------------------------------------------------------


def test_thread_barrier_error_names_failed_rank_and_chains():
    def prog(comm):
        if comm.rank == 1:  # deliberately divergent (asserts rank named)
            raise ValueError("rank one exploded")
        comm.barrier()

    with pytest.raises(SpmdError, match=r"rank 1 raised ValueError") as info:
        run_spmd(2, prog, transport="thread", timeout=10.0)
    assert isinstance(info.value.__cause__, ValueError)


def test_process_error_names_failed_rank_and_chains():
    def prog(comm):
        if comm.rank == 1:  # deliberately divergent (asserts rank named)
            raise ValueError("rank one exploded")
        comm.barrier()
        return comm.rank

    with pytest.raises(SpmdError, match=r"rank 1 raised ValueError") as info:
        run_spmd(2, prog, transport="process", timeout=10.0)
    cause = info.value.__cause__
    assert isinstance(cause, RemoteRankError)
    assert cause.rank == 1
    assert "rank one exploded" in cause.formatted_traceback
    assert _no_orphans()


def test_process_rank_death_mid_collective_fails_cleanly():
    before = _shm_segments()

    def prog(comm):
        if comm.rank == 1:
            os._exit(13)  # simulate a hard crash, no exception machinery
        comm.barrier()
        return comm.rank

    t0 = time.perf_counter()
    with pytest.raises(SpmdError, match=r"rank 1"):
        run_spmd(2, prog, transport="process", timeout=10.0)
    # the parent breaks the barrier under rank 0 the moment it sees rank 1
    # dead: nobody sits out the 10 s wait
    assert time.perf_counter() - t0 < 2.0
    assert _no_orphans()
    assert _shm_segments() == before


def test_process_timeout_reports_waiting_ranks():
    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=99)  # never sent
        return comm.rank

    with pytest.raises(SpmdError):
        run_spmd(2, prog, transport="process", timeout=1.0)
    assert _no_orphans()


def test_faults_injection_reaches_process_ranks():
    from repro.faults import FaultPlan, get_fault_plan, set_fault_plan

    plan = FaultPlan.from_dict(
        {"seed": 0, "sites": {"spmd.rank": {"always": True, "keys": [1]}}}
    )
    old = get_fault_plan()
    set_fault_plan(plan)
    try:
        def prog(comm):
            from repro.faults import maybe_inject

            maybe_inject("spmd.rank", key=comm.rank)
            comm.barrier()
            return comm.rank

        with pytest.raises(SpmdError, match="rank 1"):
            run_spmd(2, prog, transport="process", timeout=10.0)
    finally:
        set_fault_plan(old)
    assert _no_orphans()
