"""StreamingAnalysis end-to-end: accumulator exactness, determinism,
link-width invariance, the link pool's lifetime, preview."""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import mass_function
from repro.analysis.fof import fof_grid, wrap_periodic
from repro.analysis.power_spectrum import measure_power_spectrum
from repro.check import check_determinism
from repro.streaming import (
    ArrayStream,
    GenericIOStream,
    MisraGries,
    StreamingAnalysis,
    StreamingFOF,
    StreamingMassFunction,
    StreamingPowerSpectrum,
    slab_order,
    write_slab_snapshot,
)
from repro.streaming import fof as streaming_fof
from tests.oracles.fof_reference import _fof_brute_periodic, catalog_sha256, fof_periodic_tree

BOX, LL, MIN_COUNT = 20.0, 0.4, 10
MF_BINS = (10.0, 1000.0, 16)


@pytest.fixture
def reference(blob_points):
    tags = np.arange(len(blob_points), dtype=np.int64)
    ref = fof_grid(np.mod(blob_points, BOX), LL, tags=tags, min_count=MIN_COUNT, box=BOX)
    order = np.argsort(ref.halo_tags, kind="stable")
    # fof_grid runs the streaming pipeline, so it is checked against an oracle too
    oracle = fof_periodic_tree(wrap_periodic(blob_points, BOX), LL, BOX, tags, MIN_COUNT)
    assert np.array_equal(oracle.halo_tags, ref.halo_tags[order])
    assert np.array_equal(oracle.halo_counts, ref.halo_counts[order])
    return ref.halo_tags[order], ref.halo_counts[order]


def _engine(**overrides):
    params = dict(
        linking_length=LL,
        min_count=MIN_COUNT,
        mass_function_bins=MF_BINS,
        power_spectrum_ng=16,
        heavy_hitter_k=8,
    )
    params.update(overrides)
    return StreamingAnalysis(**params)


def test_full_pass_matches_in_memory_pipeline(tmp_path, blob_points, reference):
    """The headline exactness gate, through the on-disk path."""
    ref_tags, ref_counts = reference
    path = tmp_path / "snap.gio"
    tags = np.arange(len(blob_points), dtype=np.int64)
    write_slab_snapshot(path, blob_points, box=BOX, tags=tags, block_rows=500)
    for chunk_rows in (128, 700, 5000):
        result = _engine().run(GenericIOStream(path, chunk_rows=chunk_rows))
        assert np.array_equal(result.catalog.halo_tags, ref_tags)
        assert np.array_equal(result.catalog.halo_counts, ref_counts)
        ref_mf = mass_function(ref_counts, MF_BINS[2], MF_BINS[0], MF_BINS[1])
        assert np.array_equal(result.mass_function.counts, ref_mf.counts)
        assert np.array_equal(result.mass_function.bin_edges, ref_mf.bin_edges)
        assert result.n_particles == len(blob_points)
        assert result.peak_rss_bytes > 0


def test_memory_telemetry_flows_through_obs(blob_points):
    rec = obs.TelemetryRecorder(run_id="stream-run")
    obs.set_recorder(rec)
    stream = ArrayStream(blob_points, BOX, chunk_rows=300)
    result = _engine().run(stream)
    m = rec.metrics
    assert m.counter("stream_chunks_total").value == result.n_chunks
    assert m.counter("stream_particles_total").value == len(blob_points)
    assert m.counter("stream_halos_retired_total").value == result.catalog.n_halos
    assert m.gauge("process_peak_rss_bytes").value == result.peak_rss_bytes
    # one pair search per slab piece, at least one piece per chunk
    links = [s for s in rec.tracer.snapshot() if s.name == "stream.link"]
    assert len(links) >= result.n_chunks


def _at_width(mp, width):
    mp.setattr(streaming_fof, "link_width", lambda: width)


def test_link_width_does_not_change_any_result(monkeypatch, blob_points):
    tags = np.arange(len(blob_points), dtype=np.int64)
    runs = {}
    for width in (1, 2, 3):
        _at_width(monkeypatch, width)
        runs[width] = _engine().run(ArrayStream(blob_points, BOX, tags=tags, chunk_rows=256))
    base = runs[1]
    for result in (runs[2], runs[3]):
        assert np.array_equal(result.catalog.halo_tags, base.catalog.halo_tags)
        assert np.array_equal(result.catalog.halo_counts, base.catalog.halo_counts)
        assert np.array_equal(result.mass_function.counts, base.mass_function.counts)
        assert np.array_equal(result.power_spectrum.power, base.power_spectrum.power)
        assert result.heavy_hitters == base.heavy_hitters
        assert result.n_chunks == base.n_chunks  # chunks, not pieces


def _one_pass(width, pos, tags, chunk_rows, min_count):
    """The engine's products and a bare finder's retirement batches."""
    bins = (float(min_count), float(len(pos)), 8)
    batches = []
    with pytest.MonkeyPatch.context() as mp:
        _at_width(mp, width)
        fof = StreamingFOF(
            BOX, LL, min_count=min_count, on_retire=lambda t, c: batches.append((t, c))
        )
        for chunk in ArrayStream(pos, BOX, tags=tags, chunk_rows=chunk_rows):
            fof.ingest(chunk["pos"], chunk["tag"])
        cat = fof.finalize()
        result = _engine(
            min_count=min_count, mass_function_bins=bins, power_spectrum_ng=8
        ).run(ArrayStream(pos, BOX, tags=tags, chunk_rows=chunk_rows))
    assert catalog_sha256(cat.halo_tags, cat.halo_counts) == catalog_sha256(
        result.catalog.halo_tags, result.catalog.halo_counts
    )
    return cat, batches, result


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(40, 300),
    chunk_rows=st.sampled_from([1, 7, 100, None]),  # None: the whole box in one chunk
)
def test_prop_output_is_link_width_invariant(seed, n, chunk_rows):
    """Catalog ≡ ``fof_grid(box=)`` at widths 1/2/3; every other product
    and the ``on_retire`` sequence equal width 1's bit for bit."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, BOX, (int(rng.integers(1, 5)), 3))
    clustered = centers[rng.integers(0, len(centers), n // 2)] + rng.normal(
        0, 0.5, (n // 2, 3)
    )
    pos = np.mod(np.concatenate([clustered, rng.uniform(0, BOX, (n - n // 2, 3))]), BOX)
    tags = rng.permutation(np.arange(5, 5 + n)).astype(np.int64)
    min_count = 3
    ref = fof_grid(pos, LL, tags=tags, min_count=min_count, box=BOX)
    want = catalog_sha256(ref.halo_tags, ref.halo_counts)
    oracle = _fof_brute_periodic(pos, LL, BOX, tags, min_count)
    assert catalog_sha256(oracle.halo_tags, oracle.halo_counts) == want
    runs = {w: _one_pass(w, pos, tags, chunk_rows or n, min_count) for w in (1, 2, 3)}
    base_batches, base = runs[1][1], runs[1][2]
    for cat, batches, result in runs.values():
        assert catalog_sha256(cat.halo_tags, cat.halo_counts) == want
        assert np.array_equal(result.mass_function.counts, base.mass_function.counts)
        assert np.array_equal(result.power_spectrum.power, base.power_spectrum.power)
        assert result.heavy_hitters == base.heavy_hitters
        assert len(batches) == len(base_batches)
        for (t, c), (bt, bc) in zip(batches, base_batches):
            assert np.array_equal(t, bt) and np.array_equal(c, bc)


# -- the link pool -------------------------------------------------------------


class LinkFailed(RuntimeError):
    pass


def _fail_on_call(mp, n):
    """``link_components`` raising on its ``n``-th call (any thread)."""
    calls = itertools.count(1)
    real = streaming_fof.link_components

    def link(*args, **kwargs):
        if next(calls) == n:
            raise LinkFailed(f"link call {n}")
        return real(*args, **kwargs)

    mp.setattr(streaming_fof, "link_components", link)


def test_failing_link_surfaces_from_run_and_stops_the_pool(monkeypatch, blob_points):
    baseline = threading.active_count()
    _at_width(monkeypatch, 2)
    _fail_on_call(monkeypatch, 3)
    with pytest.raises(LinkFailed, match="link call 3"):
        _engine().run(ArrayStream(blob_points, BOX, chunk_rows=300))
    assert threading.active_count() == baseline


@pytest.mark.parametrize(("chunk_rows", "surfaces_in"), [(300, "ingest"), (1375, "finalize")])
def test_failing_link_surfaces_from_the_finder(monkeypatch, blob_points, chunk_rows, surfaces_in):
    """Ten chunks: the 3rd piece merges inside a later ``ingest``; two
    chunks: it is still in flight when ``finalize`` drains."""
    baseline = threading.active_count()
    _at_width(monkeypatch, 2)
    _fail_on_call(monkeypatch, 3)
    fof = StreamingFOF(BOX, LL, min_count=MIN_COUNT)
    where = "ingest"
    with pytest.raises(LinkFailed, match="link call 3"):
        for chunk in ArrayStream(blob_points, BOX, chunk_rows=chunk_rows):
            fof.ingest(chunk["pos"], chunk["tag"])
        where = "finalize"
        fof.finalize()
    assert where == surfaces_in
    assert threading.active_count() == baseline
    with pytest.raises(RuntimeError):  # the failed pass stays failed
        fof.finalize()


def test_traced_run_links_on_pool_lanes_under_stream_run(monkeypatch, blob_points):
    _at_width(monkeypatch, 2)
    both_running = threading.Barrier(2, timeout=30)
    calls = itertools.count()
    real = streaming_fof.link_components

    def link(*args, **kwargs):
        if next(calls) < 2:  # the first chunk's two pieces meet: two lanes
            both_running.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(streaming_fof, "link_components", link)
    with obs.telemetry() as rec:
        _engine().run(ArrayStream(blob_points, BOX, chunk_rows=1000))
    spans = rec.tracer.snapshot()
    (run,) = [s for s in spans if s.name == "stream.run"]
    links = [s for s in spans if s.name == "stream.link"]
    merges = [s for s in spans if s.name == "stream.merge"]
    lanes = {s.thread for s in links}
    assert len(lanes) >= 2
    assert all(lane.startswith("stream-link-") for lane in lanes)
    assert all(s.parent_id == run.span_id for s in links)
    assert len(merges) == len(links)
    assert {s.thread for s in merges} == {run.thread}


def test_streamed_campaign_is_deterministic(tmp_path, blob_points):
    """check_determinism run-twice over the full disk-to-catalog pass."""
    path = tmp_path / "snap.gio"
    write_slab_snapshot(path, blob_points, box=BOX, block_rows=400)

    def campaign():
        result = _engine().run(GenericIOStream(path, chunk_rows=150))
        return {
            "tags": result.catalog.halo_tags,
            "counts": result.catalog.halo_counts,
            "mf": result.mass_function.counts,
            "pk": result.power_spectrum.power,
            "heavy": result.heavy_hitters,
        }

    report = check_determinism(campaign, runs=2)
    assert report.ok


# -- power spectrum ------------------------------------------------------------


def test_single_chunk_pk_bit_identical_to_sorted_in_memory(blob_points):
    """One chunk replays the exact op sequence on the slab-sorted order."""
    spos = np.mod(blob_points, BOX)[slab_order(blob_points, BOX)]
    ref = measure_power_spectrum(spos, box=BOX, ng=16)
    acc = StreamingPowerSpectrum(BOX, 16)
    acc.update(spos)
    got = acc.finalize()
    assert np.array_equal(got.power, ref.power)
    assert np.array_equal(got.k, ref.k)


def test_multi_chunk_pk_matches_to_float_reordering(blob_points):
    ref = measure_power_spectrum(np.mod(blob_points, BOX), box=BOX, ng=16)
    result = _engine().run(ArrayStream(blob_points, BOX, chunk_rows=137))
    np.testing.assert_allclose(result.power_spectrum.power, ref.power, rtol=1e-10)


# -- Misra–Gries ---------------------------------------------------------------


def test_heavy_hitters_find_the_big_blobs(blob_points, reference):
    ref_tags, ref_counts = reference
    result = _engine().run(ArrayStream(blob_points, BOX, chunk_rows=256))
    top = dict(result.heavy_hitters)
    # every halo heavier than W/(k+1) is guaranteed present
    threshold = ref_counts.sum() / (8 + 1)
    for tag, count in zip(ref_tags, ref_counts):
        if count > threshold:
            assert tag in top


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 10),
    weights=st.lists(st.integers(1, 500), min_size=1, max_size=120),
)
def test_prop_misra_gries_guarantees(k, weights):
    """Survival + undercount bounds for arbitrary weighted streams."""
    sketch = MisraGries(k)
    true = {}
    for i, w in enumerate(weights):
        key = i % max(1, len(weights) // 3)  # repeat keys
        sketch.offer(key, w)
        true[key] = true.get(key, 0) + w
    total = sum(weights)
    assert sketch.total_weight == total
    bound = total / (k + 1)
    assert sketch.error_bound == bound
    for key, w in true.items():
        est = sketch.estimate(key)
        assert est <= w  # never overcounts
        assert w - est <= bound  # bounded undercount
        if w > bound:
            assert est > 0  # heavy keys always survive


def test_misra_gries_rejects_bad_inputs():
    with pytest.raises(ValueError):
        MisraGries(0)
    with pytest.raises(ValueError):
        MisraGries(4).offer(1, 0)


# -- accumulator edges ---------------------------------------------------------


def test_streaming_mass_function_additivity(rng):
    counts = rng.integers(10, 1000, 200)
    one_shot = StreamingMassFunction(*MF_BINS)
    one_shot.update(counts)
    chunked = StreamingMassFunction(*MF_BINS)
    for part in np.array_split(counts, 7):
        chunked.update(part)
    chunked.update(np.empty(0))  # empty batches are no-ops
    assert np.array_equal(one_shot.finalize().counts, chunked.finalize().counts)
    ref = mass_function(counts, MF_BINS[2], MF_BINS[0], MF_BINS[1])
    assert np.array_equal(one_shot.finalize().counts, ref.counts)


def test_streaming_pk_rejects_empty_stream():
    with pytest.raises(ValueError):
        StreamingPowerSpectrum(BOX, 16).finalize()


# -- in-situ preview tier ------------------------------------------------------


def test_streaming_preview_algorithm(mini_sim):
    from repro.insitu import ALGORITHM_REGISTRY, StreamingPreviewAlgorithm
    from repro.insitu.algorithm import AnalysisContext

    assert ALGORITHM_REGISTRY["streaming_preview"] is StreamingPreviewAlgorithm
    alg = StreamingPreviewAlgorithm()
    alg.set_parameters(min_count=8, chunk_rows=2048, heavy_hitter_k=8)
    ctx = AnalysisContext(step=10, a=1.0)
    alg.execute(mini_sim, ctx)
    preview = ctx.store["streaming_preview"]

    box = float(mini_sim.config.box)
    ll = 0.2 * box / mini_sim.config.np_per_dim
    ref = fof_grid(
        np.mod(np.asarray(mini_sim.particles.pos, dtype=np.float64), box),
        ll,
        tags=np.asarray(mini_sim.particles.tag, dtype=np.int64),
        min_count=8,
        box=box,
    )
    order = np.argsort(ref.halo_tags, kind="stable")
    assert np.array_equal(preview["halo_tags"], ref.halo_tags[order])
    assert np.array_equal(preview["halo_counts"], ref.halo_counts[order])
    oracle = fof_periodic_tree(
        wrap_periodic(np.asarray(mini_sim.particles.pos, dtype=np.float64), box),
        ll,
        box,
        np.asarray(mini_sim.particles.tag, dtype=np.int64),
        8,
    )
    assert np.array_equal(oracle.halo_tags, preview["halo_tags"])
    assert np.array_equal(oracle.halo_counts, preview["halo_counts"])
    assert preview["n_halos"] == len(ref.halo_tags)
    assert preview["peak_resident_particles"] < mini_sim.config.np_per_dim**3
