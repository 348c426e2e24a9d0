"""SPMD communicator semantics: p2p, collectives, isolation, errors.

Each test runs on thread ranks under its own name and again on forked
ranks as ``TestOverProcessRanks::<name>`` (the class at the end swaps
the ``transport`` fixture): both transports run one ``World``.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.exec.sharedmem import SharedParticleStore
from repro.parallel import SpmdConfig, SpmdError, World, run_spmd


@pytest.fixture
def transport():
    return "thread"


def test_single_rank_runs_inline(transport):
    assert run_spmd(1, lambda comm: comm.rank, transport=transport) == [0]


def test_results_in_rank_order(transport):
    assert run_spmd(4, lambda comm: comm.rank * 10, transport=transport) == [0, 10, 20, 30]


def test_send_recv_roundtrip(transport):
    def prog(comm):
        if comm.rank == 0:
            comm.send({"x": 1}, dest=1, tag=5)
            return None
        return comm.recv(source=0, tag=5)

    assert run_spmd(2, prog, transport=transport)[1] == {"x": 1}


def test_recv_tag_matching_out_of_order(transport):
    def prog(comm):
        if comm.rank == 0:
            comm.send("a", dest=1, tag=1)
            comm.send("b", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)  # arrives after tag 1; buffered
        first = comm.recv(source=0, tag=1)
        return (first, second)

    assert run_spmd(2, prog, transport=transport)[1] == ("a", "b")


def test_numpy_payloads_are_isolated(transport):
    def prog(comm):
        arr = np.zeros(3)
        if comm.rank == 0:
            comm.send(arr, dest=1)
            arr[:] = 99  # must not affect receiver
            return None
        got = comm.recv(source=0)
        return got.copy()

    assert np.array_equal(run_spmd(2, prog, transport=transport)[1], np.zeros(3))


def test_barrier_synchronizes():
    import threading

    counter = {"n": 0}
    lock = threading.Lock()

    def prog(comm):
        with lock:
            counter["n"] += 1
        comm.barrier()
        with lock:
            return counter["n"]

    # after the barrier every rank must see all increments.  Thread ranks
    # only: the count lives in a Python dict, which forked ranks each copy
    assert all(v == 4 for v in run_spmd(4, prog, transport="thread"))


def test_bcast_from_nonzero_root(transport):
    def prog(comm):
        data = [1, 2, 3] if comm.rank == 2 else None
        return comm.bcast(data, root=2)

    assert all(v == [1, 2, 3] for v in run_spmd(3, prog, transport=transport))


def test_scatter_gather_roundtrip(transport):
    def prog(comm):
        objs = [f"r{i}" for i in range(comm.size)] if comm.rank == 0 else None
        mine = comm.scatter(objs, root=0)
        return comm.gather(mine, root=0)

    res = run_spmd(3, prog, transport=transport)
    assert res[0] == ["r0", "r1", "r2"]
    assert res[1] is None and res[2] is None


def test_scatter_wrong_length_raises(transport):
    def prog(comm):
        if comm.rank == 0:  # deliberately divergent (asserts SpmdError)
            comm.scatter([1], root=0)  # wrong length
        else:
            comm.recv(source=0, tag=-102)
        return None

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=3.0, transport=transport)


def test_allgather(transport):
    res = run_spmd(4, lambda comm: comm.allgather(comm.rank**2), transport=transport)
    assert all(v == [0, 1, 4, 9] for v in res)


def test_allreduce_sum_and_custom_op(transport):
    res = run_spmd(4, lambda c: c.allreduce(c.rank), transport=transport)
    assert all(v == 6 for v in res)
    res = run_spmd(
        4, lambda c: c.allreduce(c.rank + 1, op=lambda a, b: a * b), transport=transport
    )
    assert all(v == 24 for v in res)


def test_reduce_valid_only_at_root(transport):
    res = run_spmd(3, lambda c: c.reduce(c.rank + 1, root=1), transport=transport)
    assert res[1] == 6 and res[0] is None and res[2] is None


def test_alltoall_personalized(transport):
    def prog(comm):
        objs = [f"{comm.rank}->{d}" for d in range(comm.size)]
        return comm.alltoall(objs)

    res = run_spmd(3, prog, transport=transport)
    assert res[2][0] == "0->2"
    assert res[0][1] == "1->0"
    assert res[1][1] == "1->1"


def test_alltoall_numpy_arrays(transport):
    def prog(comm):
        objs = [np.full(2, comm.rank * 10 + d) for d in range(comm.size)]
        got = comm.alltoall(objs)
        return [int(g[0]) for g in got]

    res = run_spmd(3, prog, transport=transport)
    assert res[1] == [1, 11, 21]  # from ranks 0,1,2 destined for rank 1


def test_send_to_invalid_rank_raises(transport):
    def prog(comm):
        comm.send(1, dest=99)

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=3.0, transport=transport)


def test_rank_exception_propagates(transport):
    def prog(comm):
        if comm.rank == 1:  # deliberately divergent (asserts SpmdError)
            raise RuntimeError("boom")
        comm.barrier()

    with pytest.raises(SpmdError, match="boom"):
        run_spmd(2, prog, timeout=5.0, transport=transport)


def test_deadlock_detected_by_timeout(transport):
    def prog(comm):
        return comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=1.0, transport=transport)


def test_deadlock_error_names_the_time_waited(transport):
    def prog(comm):
        return comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

    t0 = time.monotonic()
    with pytest.raises(SpmdError, match=r"timed out after 1\.0s"):
        run_spmd(2, prog, timeout=1.0, transport=transport)
    assert time.monotonic() - t0 > 0.9  # the whole timeout, not one poll step


def test_world_records_traffic(transport):
    def prog(comm):
        comm.send(np.zeros(100), dest=(comm.rank + 1) % comm.size, tag=1)
        comm.recv(tag=1)

    _, world = run_spmd(2, prog, return_world=True, transport=transport)
    assert world.messages_sent == 2
    assert world.bytes_sent == 2 * 100 * 8


def test_world_size_validation(transport):
    with pytest.raises(ValueError):
        World(0)
    with pytest.raises(ValueError):
        run_spmd(0, lambda comm: None, transport=transport)


def test_sendrecv_pairwise_exchange(transport):
    def prog(comm):
        partner = (comm.rank + 1) % comm.size
        return comm.sendrecv(comm.rank, dest=partner, source=(comm.rank - 1) % comm.size)

    assert run_spmd(4, prog, transport=transport) == [3, 0, 1, 2]


class TestOverProcessRanks:
    """The tests above on forked ranks, except the dict-counter barrier test."""

    @pytest.fixture
    def transport(self):
        return "process"


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and _name != "test_barrier_synchronizes":
        setattr(TestOverProcessRanks, _name, staticmethod(_test))


# -- process ranks only ----------------------------------------------------------


def test_a_rank_dying_inside_its_send_leaks_no_segment(monkeypatch):
    # the sender dies right after its payload's segments exist, before the
    # message is queued: the parent must still know their names and reap them
    create = SharedParticleStore.create.__func__

    def create_then_die(cls, *names, **arrays):
        create(cls, *names, **arrays)
        os._exit(7)

    monkeypatch.setattr(SharedParticleStore, "create", classmethod(create_then_die))

    def prog(comm):
        if comm.rank == 0:
            comm.send(np.arange(1000.0), dest=1)
            return None
        return comm.recv(source=0)

    before = set(glob.glob("/dev/shm/psm_*"))
    cfg = SpmdConfig(transport="process", timeout=10.0, shm_threshold=1)
    with pytest.raises(SpmdError, match=r"rank 0 died with exit code 7"):
        run_spmd(2, prog, transport=cfg)
    assert set(glob.glob("/dev/shm/psm_*")) == before
