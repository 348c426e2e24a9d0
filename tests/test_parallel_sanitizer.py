"""Runtime collective-protocol sanitizer tests (REPRO_SANITIZE=1).

Each rank hashes its ordered collective sequence; barriers cross-check
the digests and fail fast naming the diverging rank.  Exercised on both
the thread transport (default) and the process transport.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import CollectiveProtocolError, SpmdError, run_spmd
from repro.parallel.communicator import _ProtocolRecorder, _protocol_verdict


def _clean_prog(comm):
    data = comm.bcast(comm.rank * 10 if comm.rank == 0 else None, root=0)
    total = comm.allreduce(comm.rank)
    comm.barrier()
    return data, total


def _skipping_prog(comm):
    # rank 1 skips the bcast: its protocol digest diverges at the barrier
    if comm.rank != 1:  # deliberately divergent fixture
        comm.bcast("payload", root=0)
    comm.barrier()
    return comm.rank


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_clean_program_unaffected(transport, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    results = run_spmd(3, _clean_prog, transport=transport)
    assert all(r == (0, 0 + 1 + 2) for r in results)


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_diverging_rank_is_named(transport, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(SpmdError) as excinfo:
        run_spmd(3, _skipping_prog, transport=transport)
    chain: list[str] = []
    exc: BaseException | None = excinfo.value
    while exc is not None:
        chain.append(str(exc))
        exc = exc.__cause__
    text = "\n".join(chain)
    assert "rank(s) 1" in text
    assert "divergence" in text


def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert run_spmd(3, _skipping_prog) == [0, 1, 2]


def test_divergence_detected_even_with_equal_counts(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")

    def prog(comm):  # same op count, different op kind on rank 2
        if comm.rank == 2:  # deliberately divergent fixture
            comm.allreduce(1)
        else:
            comm.bcast(1, root=0)
        comm.barrier()

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(3, prog)
    chain = []
    exc: BaseException | None = excinfo.value
    while exc is not None:
        chain.append(str(exc))
        exc = exc.__cause__
    assert "rank(s) 2" in "\n".join(chain)


# -- recorder / verdict units --------------------------------------------------


def test_recorder_is_order_and_shape_sensitive():
    a, b, c = _ProtocolRecorder(), _ProtocolRecorder(), _ProtocolRecorder()
    a.record("bcast", 0, "nd[<f8,(4,)]")
    a.record("barrier")
    b.record("barrier")
    b.record("bcast", 0, "nd[<f8,(4,)]")
    c.record("bcast", 0, "nd[<f8,(8,)]")
    c.record("barrier")
    digests = {a.digest(), b.digest(), c.digest()}
    assert len(digests) == 3  # order and shape both change the hash
    assert a.count == b.count == c.count == 2


def test_recorder_value_insensitive():
    a, b = _ProtocolRecorder(), _ProtocolRecorder()
    a.record("bcast", 0, "nd[<f8,(4,)]")
    b.record("bcast", 0, "nd[<f8,(4,)]")
    assert a.digest() == b.digest()


def test_verdict_consistent_reports_empty():
    reports = {r: ("abc", 3, ("barrier",)) for r in range(4)}
    assert _protocol_verdict(reports) == ""


def test_verdict_names_minority():
    reports = {
        0: ("abc", 3, ("barrier", "bcast")),
        1: ("abc", 3, ("barrier", "bcast")),
        2: ("xyz", 2, ("barrier",)),
    }
    msg = _protocol_verdict(reports)
    assert "rank(s) 2" in msg
    assert "ranks 0, 1" in msg


def test_verdict_tie_breaks_toward_lowest_rank():
    reports = {
        0: ("abc", 1, ("bcast",)),
        1: ("xyz", 1, ("allreduce",)),
    }
    msg = _protocol_verdict(reports)
    # rank 0's group is the reference on a tie; rank 1 is the diverger
    assert "rank(s) 1" in msg


def test_protocol_error_is_spmd_error():
    assert issubclass(CollectiveProtocolError, SpmdError)


def test_numpy_payload_shapes_feed_signature(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")

    def prog(comm):  # rank-dependent *shape* through bcast diverges
        payload = np.zeros(4 if comm.rank == 0 else 8)
        out = comm.bcast(payload if comm.rank == 0 else None, root=0)
        comm.barrier()
        return out.shape

    # all ranks receive root's array -> same signature -> clean
    assert run_spmd(2, prog) == [(4,), (4,)]
