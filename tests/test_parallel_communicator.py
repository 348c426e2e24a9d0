"""SPMD communicator semantics: p2p, collectives, isolation, errors."""

import numpy as np
import pytest

from repro.parallel import SpmdError, World, run_spmd


def test_single_rank_runs_inline():
    assert run_spmd(1, lambda comm: comm.rank) == [0]


def test_results_in_rank_order():
    assert run_spmd(4, lambda comm: comm.rank * 10) == [0, 10, 20, 30]


def test_send_recv_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            comm.send({"x": 1}, dest=1, tag=5)
            return None
        return comm.recv(source=0, tag=5)

    assert run_spmd(2, prog)[1] == {"x": 1}


def test_recv_tag_matching_out_of_order():
    def prog(comm):
        if comm.rank == 0:
            comm.send("a", dest=1, tag=1)
            comm.send("b", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)  # arrives after tag 1; buffered
        first = comm.recv(source=0, tag=1)
        return (first, second)

    assert run_spmd(2, prog)[1] == ("a", "b")


def test_numpy_payloads_are_isolated():
    def prog(comm):
        arr = np.zeros(3)
        if comm.rank == 0:
            comm.send(arr, dest=1)
            arr[:] = 99  # must not affect receiver
            return None
        got = comm.recv(source=0)
        return got.copy()

    assert np.array_equal(run_spmd(2, prog)[1], np.zeros(3))


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

    # after the barrier every rank must see all increments
    assert all(v == 4 for v in run_spmd(4, prog))


def test_bcast_from_nonzero_root():
    def prog(comm):
        data = [1, 2, 3] if comm.rank == 2 else None
        return comm.bcast(data, root=2)

    assert all(v == [1, 2, 3] for v in run_spmd(3, prog))


def test_scatter_gather_roundtrip():
    def prog(comm):
        objs = [f"r{i}" for i in range(comm.size)] if comm.rank == 0 else None
        mine = comm.scatter(objs, root=0)
        return comm.gather(mine, root=0)

    res = run_spmd(3, prog)
    assert res[0] == ["r0", "r1", "r2"]
    assert res[1] is None and res[2] is None


def test_scatter_wrong_length_raises():
    def prog(comm):
        if comm.rank == 0:  # deliberately divergent (asserts SpmdError)
            comm.scatter([1], root=0)  # wrong length
        else:
            comm.recv(source=0, tag=-102)
        return None

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=3.0)


def test_allgather():
    res = run_spmd(4, lambda comm: comm.allgather(comm.rank**2))
    assert all(v == [0, 1, 4, 9] for v in res)


def test_allreduce_sum_and_custom_op():
    assert all(v == 6 for v in run_spmd(4, lambda c: c.allreduce(c.rank)))
    res = run_spmd(4, lambda c: c.allreduce(c.rank + 1, op=lambda a, b: a * b))
    assert all(v == 24 for v in res)


def test_reduce_valid_only_at_root():
    res = run_spmd(3, lambda c: c.reduce(c.rank + 1, root=1))
    assert res[1] == 6 and res[0] is None and res[2] is None


def test_alltoall_personalized():
    def prog(comm):
        objs = [f"{comm.rank}->{d}" for d in range(comm.size)]
        return comm.alltoall(objs)

    res = run_spmd(3, prog)
    assert res[2][0] == "0->2"
    assert res[0][1] == "1->0"
    assert res[1][1] == "1->1"


def test_alltoall_numpy_arrays():
    def prog(comm):
        objs = [np.full(2, comm.rank * 10 + d) for d in range(comm.size)]
        got = comm.alltoall(objs)
        return [int(g[0]) for g in got]

    res = run_spmd(3, prog)
    assert res[1] == [1, 11, 21]  # from ranks 0,1,2 destined for rank 1


def test_send_to_invalid_rank_raises():
    def prog(comm):
        comm.send(1, dest=99)

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=3.0)


def test_rank_exception_propagates():
    def prog(comm):
        if comm.rank == 1:  # deliberately divergent (asserts SpmdError)
            raise RuntimeError("boom")
        comm.barrier()

    with pytest.raises(SpmdError, match="boom"):
        run_spmd(2, prog, timeout=5.0)


def test_deadlock_detected_by_timeout():
    def prog(comm):
        return comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

    with pytest.raises(SpmdError):
        run_spmd(2, prog, timeout=1.0)


def test_world_records_traffic():
    def prog(comm):
        comm.send(np.zeros(100), dest=(comm.rank + 1) % comm.size, tag=1)
        comm.recv(tag=1)

    _, world = run_spmd(2, prog, return_world=True)
    assert world.messages_sent == 2
    assert world.bytes_sent == 2 * 100 * 8


def test_world_size_validation():
    with pytest.raises(ValueError):
        World(0)


def test_sendrecv_pairwise_exchange():
    def prog(comm):
        partner = (comm.rank + 1) % comm.size
        return comm.sendrecv(comm.rank, dest=partner, source=(comm.rank - 1) % comm.size)

    assert run_spmd(4, prog) == [3, 0, 1, 2]
