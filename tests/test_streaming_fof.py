"""StreamingFOF exactness: streamed catalogs bit-identical to in-memory FOF."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fof import fof_grid, wrap_periodic
from repro.streaming import (
    ArrayStream,
    GroupForest,
    StreamedCatalog,
    StreamingFOF,
    StreamOrderError,
    slab_order,
)
from repro.streaming import fof as streaming_fof
from tests.oracles.fof_reference import _fof_brute_periodic, catalog_sha256, fof_periodic_tree


def _reference_catalog(pos, tags, box, ll, min_count):
    """In-memory FOF catalog as sorted ``(tag, count)`` pairs."""
    ref = fof_grid(np.mod(pos, box), ll, tags=tags, min_count=min_count, box=box)
    order = np.argsort(ref.halo_tags, kind="stable")
    # fof_grid runs this pipeline, so it is checked against an oracle too
    oracle = fof_periodic_tree(wrap_periodic(pos, box), ll, box, tags, min_count)
    assert np.array_equal(oracle.halo_tags, ref.halo_tags[order])
    assert np.array_equal(oracle.halo_counts, ref.halo_counts[order])
    return ref.halo_tags[order], ref.halo_counts[order]


def _stream_catalog(pos, tags, box, ll, min_count, chunk_rows):
    fof = StreamingFOF(box, ll, min_count=min_count)
    for chunk in ArrayStream(pos, box, tags=tags, chunk_rows=chunk_rows):
        fof.ingest(chunk["pos"], chunk["tag"])
    return fof.finalize()


def _assert_bit_identical(cat: StreamedCatalog, ref_tags, ref_counts):
    assert np.array_equal(cat.halo_tags, ref_tags)
    assert np.array_equal(cat.halo_counts, ref_counts)


def test_streamed_catalog_matches_in_memory(blob_points):
    box, ll, min_count = 20.0, 0.4, 10
    tags = np.arange(len(blob_points), dtype=np.int64)
    ref_tags, ref_counts = _reference_catalog(blob_points, tags, box, ll, min_count)
    assert len(ref_tags) >= 5  # the five blobs must actually be found
    for chunk_rows in (37, 256, 1000, len(blob_points) + 1):
        cat = _stream_catalog(blob_points, tags, box, ll, min_count, chunk_rows)
        _assert_bit_identical(cat, ref_tags, ref_counts)
        assert cat.n_particles == len(blob_points)


def _wrap_straddling_field():
    """A blob across the periodic x boundary in a uniform background."""
    rng = np.random.default_rng(42)
    box = 10.0
    blob = np.mod(rng.normal([0.0, 5.0, 5.0], 0.15, (300, 3)), box)
    background = rng.uniform(0, box, (700, 3))
    return np.concatenate([blob, background]), box


def test_wrap_straddling_halo_is_exact(monkeypatch):
    """A blob across the periodic x boundary joins head + tail slabs, at
    every link width."""
    pos, box = _wrap_straddling_field()
    tags = np.arange(len(pos), dtype=np.int64)
    ref_tags, ref_counts = _reference_catalog(pos, tags, box, 0.3, 50)
    assert len(ref_tags) >= 1
    for width in (1, 2, 3):
        monkeypatch.setattr(streaming_fof, "link_width", lambda w=width: w)
        for chunk_rows in (50, 128, 333):
            cat = _stream_catalog(pos, tags, box, 0.3, 50, chunk_rows)
            _assert_bit_identical(cat, ref_tags, ref_counts)


def test_middle_pieces_leave_the_head_slab_out(monkeypatch):
    """The ring keeps the x <= ll head slab for the wrap; a piece inside
    (2 ll, box - ll) cannot reach it, so its link leaves it out, while
    the first pieces and those reaching box - ll search all of it."""
    pos, box = _wrap_straddling_field()
    ll = 0.3
    monkeypatch.setattr(streaming_fof, "link_width", lambda: 1)  # one piece per chunk
    searched = []
    real = streaming_fof.link_components

    def link(resident, *args):
        searched.append(resident[:, 0].copy())
        return real(resident, *args)

    monkeypatch.setattr(streaming_fof, "link_components", link)
    chunks = list(ArrayStream(pos, box, chunk_rows=50))
    fof = StreamingFOF(box, ll, min_count=50)
    for chunk in chunks:
        fof.ingest(chunk["pos"], chunk["tag"])
    fof.finalize()
    assert len(searched) == len(chunks)

    head = np.empty(0)
    middle = []
    for chunk, xs in zip(chunks, searched):
        x = chunk["pos"][:, 0]
        inside = x.min() > 2 * ll and x.max() < box - ll
        found = np.isin(head, xs)
        assert not found.any() if inside else found.all()
        middle.append(inside)
        head = np.concatenate([head, x[x <= ll]])
    assert len(head) > 0
    assert not middle[0] and not middle[-1]
    assert any(middle)


def test_ingest_wraps_only_chunks_outside_the_box(monkeypatch):
    """A chunk already inside [0, box) — a slab snapshot's — is linked as
    given; one with a coordinate outside is wrapped first."""
    wrapped = []
    real = streaming_fof.wrap_periodic

    def wrap(pos, box):
        wrapped.append(len(pos))
        return real(pos, box)

    monkeypatch.setattr(streaming_fof, "wrap_periodic", wrap)
    inside = np.array([[0.0, 1.0, 1.0], [np.nextafter(10.0, 0), 1.0, 1.0]])
    fof = StreamingFOF(10.0, 0.3, min_count=1)
    fof.ingest(inside, np.array([0, 1]))
    assert np.array_equal(fof.finalize().halo_counts, [2])
    assert wrapped == []
    fof = StreamingFOF(10.0, 0.3, min_count=1)
    fof.ingest(np.array([[-1e-17, 1.0, 1.0], [9.9, 1.0, 1.0]]), np.array([0, 1]))
    assert np.array_equal(fof.finalize().halo_counts, [2])
    assert wrapped == [2]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(20, 400),
    chunk_rows=st.integers(1, 100),
    box=st.floats(5.0, 50.0),
    ll_frac=st.floats(0.01, 0.08),
    min_count=st.integers(1, 8),
)
def test_prop_streamed_equals_in_memory(seed, n, chunk_rows, box, ll_frac, min_count):
    """Bit-identity holds for arbitrary data, chunking, and linking."""
    rng = np.random.default_rng(seed)
    # half clustered around a few seeds, half uniform — exercises both
    # dense components spanning many chunks and isolated singletons
    n_centers = rng.integers(1, 5)
    centers = rng.uniform(0, box, (n_centers, 3))
    clustered = centers[rng.integers(0, n_centers, n // 2)] + rng.normal(
        0, box * ll_frac, (n // 2, 3)
    )
    uniform = rng.uniform(0, box, (n - n // 2, 3))
    pos = np.mod(np.concatenate([clustered, uniform]), box)
    tags = rng.permutation(np.arange(10, 10 + n)).astype(np.int64)
    ll = box * ll_frac
    ref_tags, ref_counts = _reference_catalog(pos, tags, box, ll, min_count)
    cat = _stream_catalog(pos, tags, box, ll, min_count, chunk_rows)
    _assert_bit_identical(cat, ref_tags, ref_counts)


def test_catalog_digest_is_chunk_size_invariant(blob_points):
    """Streamed ≡ in-memory by ``catalog_sha256``, from one particle per
    chunk to the whole snapshot in one."""
    box, ll, min_count = 20.0, 0.4, 10
    n = len(blob_points)
    tags = np.random.default_rng(3).permutation(n).astype(np.int64)
    want = catalog_sha256(*_reference_catalog(blob_points, tags, box, ll, min_count))
    for chunk_rows in (1, 7, 1000, n):
        cat = _stream_catalog(blob_points, tags, box, ll, min_count, chunk_rows)
        assert catalog_sha256(cat.halo_tags, cat.halo_counts) == want, chunk_rows


def test_box_edge_positions_stream_like_the_oracle():
    """Coordinates that ``np.mod`` leaves *at* ``box`` (``-1e-17``) must
    sort, link and retire as ``0.0`` — on the slab axis above all."""
    box = 102.0
    edge = [-1e-17, box, np.nextafter(box, 0), np.nextafter(0, -1)]
    pos = np.array([[x, 5.0, 5.0] for x in edge] + [[0.1, 5.0, 5.0], [50.0, 5.0, 5.0]])
    tags = np.arange(len(pos), dtype=np.int64) + 3
    for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        p = pos[:, perm]
        ref = _fof_brute_periodic(p, 0.2, box, tags, 1)
        assert np.array_equal(ref.halo_counts, [5, 1])
        for chunk_rows in (1, 2, len(p)):
            cat = _stream_catalog(p, tags, box, 0.2, 1, chunk_rows)
            _assert_bit_identical(cat, ref.halo_tags, ref.halo_counts)
        # ingest() on its own wraps too, not only the stream sources
        fof = StreamingFOF(box, 0.2, min_count=1)
        order = slab_order(p, box)
        fof.ingest(p[order], tags[order])
        _assert_bit_identical(fof.finalize(), ref.halo_tags, ref.halo_counts)


def test_retirement_is_incremental(blob_points):
    """Halos must retire mid-stream, not pile up until finalize."""
    box, ll = 20.0, 0.4
    tags = np.arange(len(blob_points), dtype=np.int64)
    batches = []
    fof = StreamingFOF(box, ll, min_count=10, on_retire=lambda t, c: batches.append(len(t)))
    for chunk in ArrayStream(blob_points, box, tags=tags, chunk_rows=200):
        fof.ingest(chunk["pos"], chunk["tag"])
    mid_stream = sum(batches)
    cat = fof.finalize()
    assert mid_stream > 0  # some halos finished before the end
    assert sum(batches) == cat.n_halos  # finalize retires the rest via the hook


def test_resident_state_is_bounded(blob_points):
    """Peak resident particles ≪ total for small chunks (the whole point)."""
    box, ll = 20.0, 0.4
    tags = np.arange(len(blob_points), dtype=np.int64)
    fof = StreamingFOF(box, ll, min_count=10)
    for chunk in ArrayStream(blob_points, box, tags=tags, chunk_rows=100):
        fof.ingest(chunk["pos"], chunk["tag"])
    fof.finalize()
    assert fof.peak_resident < len(blob_points) / 2


def _max_ring(pos, box, ll):
    """Largest ring any slab cut of ``pos`` can leave: with frontier
    ``xs[i]``, the particles seen so far with ``x >= xs[i] - ll`` or
    ``x <= ll``."""
    xs = np.sort(wrap_periodic(np.array(pos, dtype=float), box)[:, 0])
    seen = np.arange(1, len(xs) + 1)
    tail_lo = np.searchsorted(xs, xs - ll, side="left")
    head = np.minimum(np.searchsorted(xs, ll, side="right"), seen)
    both = np.clip(head - tail_lo, 0, None)
    return int((seen - tail_lo + head - both).max())


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("chunk_rows", [7, 100, 1000])
def test_in_flight_particles_stay_below_chunk_plus_w_rings(
    monkeypatch, blob_points, width, chunk_rows
):
    box, ll = 20.0, 0.4
    monkeypatch.setattr(streaming_fof, "link_width", lambda: width)
    fof = StreamingFOF(box, ll, min_count=10)
    for chunk in ArrayStream(blob_points, box, chunk_rows=chunk_rows):
        fof.ingest(chunk["pos"], chunk["tag"])
    fof.finalize()
    assert fof.peak_resident <= chunk_rows + width * _max_ring(blob_points, box, ll)


def test_unsorted_chunk_is_cut_into_sorted_slabs(monkeypatch, blob_points):
    """One chunk in arbitrary order: the pieces are still x slabs."""
    box, ll = 20.0, 0.4
    monkeypatch.setattr(streaming_fof, "link_width", lambda: 3)
    tags = np.arange(len(blob_points), dtype=np.int64)
    fof = StreamingFOF(box, ll, min_count=10)
    fof.ingest(blob_points, tags)
    _assert_bit_identical(fof.finalize(), *_reference_catalog(blob_points, tags, box, ll, 10))


def test_out_of_order_chunk_rejected():
    fof = StreamingFOF(10.0, 0.2, min_count=1)
    fof.ingest(np.array([[5.0, 1.0, 1.0]]), np.array([0]))
    with pytest.raises(StreamOrderError):
        fof.ingest(np.array([[1.0, 1.0, 1.0]]), np.array([1]))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_out_of_order_chunk_is_named_at_every_width(monkeypatch, width):
    baseline = threading.active_count()
    monkeypatch.setattr(streaming_fof, "link_width", lambda: width)
    rng = np.random.default_rng(5)

    def chunk(lo, hi):
        pos = np.column_stack([np.sort(rng.uniform(lo, hi, 50)), rng.uniform(0, 10, (50, 2))])
        return pos, rng.integers(0, 1 << 40, 50)

    fof = StreamingFOF(10.0, 0.2, min_count=1)
    fof.ingest(*chunk(1.0, 2.0))
    fof.ingest(*chunk(3.0, 4.0))
    with pytest.raises(StreamOrderError, match="^chunk 2 "):
        fof.ingest(*chunk(2.5, 5.0))
    assert threading.active_count() == baseline


def test_ingest_after_finalize_rejected():
    fof = StreamingFOF(10.0, 0.2, min_count=1)
    fof.finalize()
    with pytest.raises(RuntimeError):
        fof.ingest(np.array([[1.0, 1.0, 1.0]]), np.array([0]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        StreamingFOF(0.0, 0.2)
    with pytest.raises(ValueError):
        StreamingFOF(10.0, 0.0)
    with pytest.raises(ValueError):
        StreamingFOF(10.0, 10.0)


def test_empty_stream_yields_empty_catalog():
    fof = StreamingFOF(10.0, 0.2, min_count=1)
    cat = fof.finalize()
    assert cat.n_halos == 0
    assert cat.n_particles == 0
    # finalize is idempotent
    assert fof.finalize().n_halos == 0


def test_slab_order_is_stable_on_wrapped_x():
    pos = np.array([[9.9, 0, 0], [-0.5, 0, 0], [0.1, 0, 0], [19.5, 0, 0]], dtype=float)
    order = slab_order(pos, 10.0)  # wrapped x: 9.9, 9.5, 0.1, 9.5
    assert order.tolist() == [2, 1, 3, 0]


# -- GroupForest ---------------------------------------------------------------


def test_group_forest_union_folds_aggregates():
    forest = GroupForest()
    a, b = forest.new_groups(2)
    forest.fold(np.array([a, b]), np.array([5, 7]), np.array([30, 10]))
    r = forest.union(int(a), int(b))
    assert forest.counts[r] == 12
    assert forest.min_tags[r] == 10


def test_group_forest_growth_past_initial_capacity():
    forest = GroupForest()
    ids = forest.new_groups(50)  # initial buffers hold 16
    assert len(forest) == 50
    forest.fold(ids, np.ones(50, dtype=np.int64), np.arange(50, dtype=np.int64))
    assert forest.counts[:50].sum() == 50


def test_group_forest_compact_gathers_by_sorted_old_root():
    forest = GroupForest()
    ids = forest.new_groups(4)
    forest.fold(ids, np.array([1, 2, 3, 4]), np.array([40, 30, 20, 10]))
    old = forest.compact(np.array([ids[3], ids[1]]))
    assert old.tolist() == [ids[1], ids[3]]
    assert forest.counts[:2].tolist() == [2, 4]
    assert forest.min_tags[:2].tolist() == [30, 10]
