"""Chunked streaming IO: re-chunking, CRC modes, torn files, fault recovery."""

import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    fault_plan,
)
from repro.io import GenericIOError, GenericIOFile, write_genericio
from repro.streaming import (
    ArrayStream,
    GenericIOStream,
    ParticleStream,
    StreamingAnalysis,
    write_slab_snapshot,
)
from repro.streaming import fof as streaming_fof

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=1e-4, max_delay=1e-3, jitter=0.0)


@pytest.fixture
def snapshot(tmp_path, blob_points):
    """A slab-ordered on-disk snapshot of the clustered point set."""
    path = tmp_path / "slab.gio"
    tags = np.arange(len(blob_points), dtype=np.int64)
    write_slab_snapshot(path, blob_points, box=20.0, tags=tags, block_rows=400)
    return path


def _collect(stream):
    pos = [c["pos"] for c in stream]
    tag = [c["tag"] for c in stream]
    return np.concatenate(pos), np.concatenate(tag)


# -- iter_chunks / GenericIOStream ---------------------------------------------


def test_iter_chunks_rechunks_across_block_boundaries(snapshot):
    gio = GenericIOFile(snapshot)
    whole = gio.read_block(0)
    rows = [len(c["tag"]) for c in gio.iter_chunks(130)]
    assert sum(rows) == gio.total_rows
    assert all(r == 130 for r in rows[:-1])  # only the tail may be short
    # chunk boundaries cut across the 400-row blocks without data loss
    streamed = np.concatenate([c["tag"] for c in gio.iter_chunks(130)])
    direct = np.concatenate([gio.read_block(b)["tag"] for b in range(gio.num_blocks)])
    assert np.array_equal(streamed, direct)
    assert len(whole["tag"]) == 400


def test_iter_chunks_variable_subset(snapshot):
    gio = GenericIOFile(snapshot)
    chunk = next(gio.iter_chunks(64, variables=["tag"]))
    assert list(chunk) == ["tag"]
    with pytest.raises(KeyError):
        next(gio.iter_chunks(64, variables=["no_such"]))


def test_stream_is_slab_ordered_and_complete(snapshot, blob_points):
    stream = GenericIOStream(snapshot, chunk_rows=97)
    assert isinstance(stream, ParticleStream)
    assert stream.box == 20.0
    assert stream.n_total == len(blob_points)
    pos, tag = _collect(stream)
    x = pos[:, 0]
    assert np.all(np.diff(x) >= 0)  # globally non-decreasing wrapped x
    assert np.array_equal(np.sort(tag), np.arange(len(blob_points)))


def test_box_comes_from_meta_or_is_required(tmp_path, rng):
    pos = rng.uniform(0, 5, (30, 3))
    plain = tmp_path / "plain.gio"
    write_genericio(plain, [{"pos": pos, "tag": np.arange(30, dtype=np.int64)}])
    with pytest.raises(ValueError, match="no box"):
        GenericIOStream(plain)
    stream = GenericIOStream(plain, box=5.0)  # explicit override works
    assert stream.box == 5.0


def test_meta_roundtrip(snapshot):
    meta = GenericIOFile(snapshot).meta
    assert meta["box"] == 20.0
    assert meta["slab_axis"] == 0
    assert meta["n_total"] == GenericIOFile(snapshot).total_rows


def test_array_stream_equivalent_to_file_stream(snapshot, blob_points):
    tags = np.arange(len(blob_points), dtype=np.int64)
    apos, atag = _collect(ArrayStream(blob_points, 20.0, tags=tags, chunk_rows=97))
    fpos, ftag = _collect(GenericIOStream(snapshot, chunk_rows=97))
    assert np.array_equal(apos, fpos)
    assert np.array_equal(atag, ftag)


# -- CRC modes -----------------------------------------------------------------


def _corrupt_tail(path, nbytes=64):
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - nbytes)


def test_lazy_verify_defers_to_the_torn_block(snapshot):
    _corrupt_tail(snapshot)
    gio = GenericIOFile(snapshot)  # lazy: open succeeds on a torn file
    good = gio.read_block(0)  # early blocks still readable
    assert len(good["tag"]) == 400
    with pytest.raises(GenericIOError, match="truncated"):
        gio.read_block(gio.num_blocks - 1)


def test_eager_verify_fails_at_open(snapshot):
    GenericIOFile(snapshot, verify="eager")  # intact file passes
    _corrupt_tail(snapshot)
    with pytest.raises(GenericIOError):
        GenericIOFile(snapshot, verify="eager")
    with pytest.raises(ValueError):
        GenericIOFile(snapshot, verify="sometimes")


def test_torn_file_surfaces_mid_stream_after_good_chunks(snapshot):
    """A torn tail costs only the torn block: every earlier chunk arrives."""
    n_total = GenericIOFile(snapshot).total_rows
    _corrupt_tail(snapshot)
    stream = GenericIOStream(snapshot, chunk_rows=150, retry=FAST_RETRY)
    seen = 0
    with pytest.raises(GenericIOError):
        for chunk in stream:
            seen += len(chunk["tag"])
    assert 0 < seen < n_total  # progress up to (not past) the torn block


def test_torn_file_stops_the_link_pool(monkeypatch, snapshot):
    """The read error ends the pass with every link thread joined."""
    baseline = threading.active_count()
    monkeypatch.setattr(streaming_fof, "link_width", lambda: 2)
    _corrupt_tail(snapshot)
    engine = StreamingAnalysis(linking_length=0.4, min_count=10)
    with pytest.raises(GenericIOError):
        engine.run(GenericIOStream(snapshot, chunk_rows=150, retry=FAST_RETRY))
    assert threading.active_count() == baseline


def test_bitflip_detected_lazily(snapshot):
    gio = GenericIOFile(snapshot)
    with open(snapshot, "r+b") as fh:  # flip a byte in the last block's payload
        fh.seek(os.path.getsize(snapshot) - 4)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))
    assert len(gio.read_block(0)["tag"]) == 400
    with pytest.raises(GenericIOError, match="CRC"):
        gio.read_block(gio.num_blocks - 1)
    # verify=False skips the check (the fast path the benchmarks gate)
    assert len(gio.read_block(gio.num_blocks - 1, verify=False)["tag"]) > 0


# -- stream.read fault injection -----------------------------------------------


def test_transient_stream_fault_is_retried_without_data_loss(snapshot):
    rec = obs.TelemetryRecorder(run_id="stream-fault")
    obs.set_recorder(rec)
    clean_pos, clean_tag = _collect(GenericIOStream(snapshot, chunk_rows=150))
    key = f"{os.path.basename(snapshot)}:2"
    plan = FaultPlan(
        seed=1, sites={"stream.read": FaultSpec(fail_first=2, keys=(key,))}
    )
    with fault_plan(plan):
        pos, tag = _collect(GenericIOStream(snapshot, chunk_rows=150, retry=FAST_RETRY))
    assert plan.injected["stream.read"] == 2  # the fault really fired, twice
    assert np.array_equal(pos, clean_pos)  # same bytes, same order
    assert np.array_equal(tag, clean_tag)
    assert rec.metrics.counter("faults_injected_total").value == 2


def test_transient_stream_fault_keeps_the_catalog(monkeypatch, snapshot):
    """Retried reads between pipelined links: the same catalog bits."""
    monkeypatch.setattr(streaming_fof, "link_width", lambda: 2)
    engine = StreamingAnalysis(linking_length=0.4, min_count=10)
    clean = engine.run(GenericIOStream(snapshot, chunk_rows=150)).catalog
    key = f"{os.path.basename(snapshot)}:2"
    plan = FaultPlan(seed=1, sites={"stream.read": FaultSpec(fail_first=2, keys=(key,))})
    with fault_plan(plan):
        faulted = engine.run(GenericIOStream(snapshot, chunk_rows=150, retry=FAST_RETRY))
    assert plan.injected["stream.read"] == 2
    assert np.array_equal(faulted.catalog.halo_tags, clean.halo_tags)
    assert np.array_equal(faulted.catalog.halo_counts, clean.halo_counts)


def test_persistent_stream_fault_exhausts_retries(snapshot):
    # exhaustion re-raises the last attempt's exception (RetryError is
    # reserved for deadline violations)
    plan = FaultPlan(seed=1, sites={"stream.read": FaultSpec(always=True)})
    with fault_plan(plan):
        with pytest.raises(FaultInjected):
            _collect(GenericIOStream(snapshot, chunk_rows=150, retry=FAST_RETRY))
    assert plan.injected["stream.read"] == FAST_RETRY.max_attempts


def test_array_stream_fault_site_fires_too(blob_points):
    plan = FaultPlan(
        seed=1, sites={"stream.read": FaultSpec(fail_first=1, keys=("array:0",))}
    )
    tags = np.arange(len(blob_points), dtype=np.int64)
    with fault_plan(plan):
        pos, tag = _collect(
            ArrayStream(blob_points, 20.0, tags=tags, chunk_rows=500, retry=FAST_RETRY)
        )
    assert plan.injected["stream.read"] == 1
    assert len(tag) == len(blob_points)
