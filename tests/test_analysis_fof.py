"""FOF halo finding: the one production finder against its oracles.

``fof_grid`` / ``parallel_fof`` are checked three ways: against the
pure-Python k-d tree and O(n²) periodic brute-force oracles
(:mod:`tests.oracles.fof_reference`), against each other (and the
streamed pass) across decompositions and transports, and against golden
digests: the serial finder's recorded from the commit *before* the
compiled pair search replaced the cell grid (ea6c278), the parallel
finder's derived from the serial periodic finder on the same particles.
"""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro.analysis import fof as fof_module
from repro.analysis import fof_grid, halo_groups, parallel_fof
from repro.analysis.fof import link_components, wrap_periodic
from repro.parallel import CartesianDecomposition, run_spmd
from repro.streaming import ArrayStream, StreamingFOF
from repro.streaming import fof as streaming_fof
from tests.oracles.fof_reference import (
    _fof_brute_periodic,
    box_gap_sq,
    box_span_sq,
    catalog_sha256,
    finalize_reference,
    fof_kdtree,
    fof_periodic_tree,
    link_brute,
)


def _oracle(pos, ll, box, tags=None, min_count=1):
    """The reference result: k-d tree oracle (open box) or brute force."""
    if box is None:
        return fof_kdtree(pos, ll, tags=tags, min_count=min_count)
    return _fof_brute_periodic(np.mod(pos, box), ll, box, tags, min_count)


def _assert_same_result(a, b):
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.halo_tags, b.halo_tags)
    assert np.array_equal(a.halo_counts, b.halo_counts)


def _parallel_halos(pos, tags, box, nranks, ll, overload, min_count, transport=None):
    """Merged ``halo tag -> sorted member tags`` over all ranks."""

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        mine = decomp.rank_of_position(pos) == comm.rank
        return parallel_fof(
            comm,
            decomp,
            pos[mine],
            tags[mine],
            linking_length=ll,
            overload_width=overload,
            min_count=min_count,
        )

    halos = {}
    for rank_halos in run_spmd(nranks, prog, transport=transport):
        for tag, members in rank_halos.items():
            assert tag not in halos, "halo owned by two ranks"
            halos[tag] = members
    return halos


def _parallel_digest(halos) -> str:
    order = sorted(halos)
    members = np.concatenate([halos[t] for t in order]) if order else []
    return catalog_sha256(order, [len(halos[t]) for t in order], members)


def test_two_points_linked_iff_within_ll():
    pos = np.asarray([[0, 0, 0], [0.5, 0, 0], [3, 0, 0]], dtype=float)
    r = fof_kdtree(pos, linking_length=1.0, min_count=2)
    assert r.n_halos == 1
    assert np.array_equal(r.labels, [0, 0, -1])


def test_chain_percolates():
    """FOF links transitively: a chain of near points is one halo."""
    pos = np.column_stack([np.arange(10) * 0.9, np.zeros(10), np.zeros(10)])
    r = fof_kdtree(pos, linking_length=1.0, min_count=2)
    assert r.n_halos == 1
    assert r.halo_counts[0] == 10


def test_chain_breaks_at_gap():
    x = np.concatenate([np.arange(5) * 0.9, np.arange(5) * 0.9 + 10.0])
    pos = np.column_stack([x, np.zeros(10), np.zeros(10)])
    r = fof_kdtree(pos, linking_length=1.0, min_count=2)
    assert r.n_halos == 2
    assert np.array_equal(r.halo_counts, [5, 5])


def test_min_count_discards_small(blob_points):
    r_all = fof_grid(blob_points, 0.2, min_count=2)
    r_big = fof_grid(blob_points, 0.2, min_count=100)
    assert r_big.n_halos <= r_all.n_halos
    assert np.all(r_big.halo_counts >= 100)


def test_labels_are_min_member_tag(blob_points):
    tags = np.arange(len(blob_points)) * 3 + 7  # arbitrary distinct tags
    r = fof_grid(blob_points, 0.2, tags=tags, min_count=10)
    for halo_tag in r.halo_tags:
        members = tags[r.labels == halo_tag]
        assert halo_tag == members.min()


def test_box_gap_and_span():
    """The k-d tree oracle's subtree exclusion / wholesale-merge bounds."""
    lo_a, hi_a = np.zeros(3), np.ones(3)
    lo_b, hi_b = np.asarray([2.0, 0, 0]), np.asarray([3.0, 1, 1])
    assert box_gap_sq(lo_a, hi_a, lo_b, hi_b) == pytest.approx(1.0)
    assert box_span_sq(lo_a, hi_a, lo_b, hi_b) == pytest.approx(9.0 + 1 + 1)
    # overlapping boxes: gap 0
    assert box_gap_sq(lo_a, hi_a, lo_a, hi_a) == 0.0


def test_kdtree_and_grid_agree(blob_points):
    tags = np.arange(len(blob_points))
    a = fof_kdtree(blob_points, 0.2, tags=tags, min_count=10)
    b = fof_grid(blob_points, 0.2, tags=tags, min_count=10)
    _assert_same_result(a, b)


def test_grid_periodic_matches_brute(rng):
    pos = np.mod(rng.normal(0, 1.5, (300, 3)), 10.0)
    a = fof_grid(pos, 0.5, min_count=5, box=10.0)
    b = _fof_brute_periodic(pos, 0.5, 10.0, None, 5)
    assert np.array_equal(a.labels, b.labels)


def test_periodic_halo_across_boundary():
    """A clump straddling the box edge is one halo with periodicity."""
    pos = np.asarray([[9.9, 5, 5], [0.1, 5, 5], [0.3, 5, 5]])
    r = fof_grid(pos, 0.5, min_count=2, box=10.0)
    assert r.n_halos == 1
    assert r.halo_counts[0] == 3


def test_empty_input():
    r = fof_grid(np.empty((0, 3)), 0.2)
    assert r.n_halos == 0
    assert len(r.labels) == 0


def test_halo_groups_mapping(blob_points):
    r = fof_grid(blob_points, 0.2, min_count=10)
    groups = halo_groups(r)
    assert set(groups) == set(int(t) for t in r.halo_tags)
    for tag, idx in groups.items():
        assert np.all(r.labels[idx] == tag)
    total = sum(len(v) for v in groups.values())
    assert total == int((r.labels >= 0).sum())


def test_members_accessor(blob_points):
    r = fof_grid(blob_points, 0.2, min_count=10)
    tag = int(r.halo_tags[0])
    assert len(r.members(tag)) == r.halo_counts[0]


def _assert_parallel_equals_serial(parallel_halos, pos, tags, box, ll, min_count):
    serial = fof_grid(pos, ll, tags=tags, min_count=min_count, box=box)
    groups = halo_groups(serial)
    assert set(parallel_halos) == set(groups)
    for tag, idx in groups.items():
        assert np.array_equal(np.sort(tags[idx]), parallel_halos[tag])


@pytest.mark.parametrize("local_finder", ["grid", "brute"])
@pytest.mark.parametrize("nranks", [2, 8])
def test_parallel_matches_serial(blob_points, local_finder, nranks, monkeypatch):
    """The ghost exchange + min-tag ownership give the serial catalog —
    with the production rank-local link, and with the all-pairs oracle
    link (minimum image on the grid's 1-wide axes only) standing in for
    it (thread ranks share this module patch; the serial reference runs
    unpatched)."""
    if local_finder == "brute":
        monkeypatch.setattr("repro.analysis.fof.link_components", link_brute)
    tags = np.arange(len(blob_points))
    halos = _parallel_halos(blob_points, tags, 20.0, nranks, ll=0.2, overload=2.0, min_count=10)
    monkeypatch.undo()
    _assert_parallel_equals_serial(halos, blob_points, tags, 20.0, 0.2, 10)


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_parallel_222_grid_matches_serial_on_both_transports(blob_points, transport):
    assert CartesianDecomposition.for_ranks(20.0, 8).dims == (2, 2, 2)
    tags = np.arange(len(blob_points))
    halos = _parallel_halos(
        blob_points, tags, 20.0, 8, ll=0.2, overload=2.0, min_count=10, transport=transport
    )
    _assert_parallel_equals_serial(halos, blob_points, tags, 20.0, 0.2, 10)


def test_parallel_halo_spanning_rank_boundary():
    """A halo crossing a rank boundary is found whole by exactly one rank."""
    box = 20.0
    # clump centered on the x=10 plane (the 2-rank boundary)
    local = np.random.default_rng(5)
    pos = np.mod(local.normal([10, 5, 5], 0.2, (100, 3)), box)
    tags = np.arange(100)

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        owners = decomp.rank_of_position(pos)
        mine = owners == comm.rank
        return parallel_fof(
            comm, decomp, pos[mine], tags[mine], 0.3, overload_width=3.0, min_count=10
        )

    # sanity: the clump truly straddles the boundary
    decomp = CartesianDecomposition.for_ranks(box, 2)
    owners = decomp.rank_of_position(pos)
    assert 0 < (owners == 0).sum() < 100

    results = run_spmd(2, prog)
    found = [h for r in results for h in r.items()]
    serial = fof_grid(pos, 0.3, tags=tags, min_count=10, box=box)
    assert len(found) == serial.n_halos
    # the dominant halo is complete on its single owning rank
    biggest = max(found, key=lambda kv: len(kv[1]))
    assert len(biggest[1]) == serial.halo_counts.max()


def test_parallel_halo_straddling_box_boundary():
    """Regression: a halo across the periodic box edge (not just an
    interior rank boundary) must come out complete — requires the ghost
    images to carry the correct periodic shift sign."""
    box = 20.0
    local = np.random.default_rng(9)
    pos = np.mod(local.normal([0.0, 10, 10], 0.3, (80, 3)), box)  # straddles x=0
    tags = np.arange(80)

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        owners = decomp.rank_of_position(pos)
        mine = owners == comm.rank
        return parallel_fof(
            comm, decomp, pos[mine], tags[mine], 0.4, overload_width=3.0, min_count=10
        )

    results = run_spmd(8, prog)
    found = {t: m for r in results for t, m in r.items()}
    serial = fof_grid(pos, 0.4, tags=tags, min_count=10, box=box)
    groups = halo_groups(serial)
    assert set(found) == set(groups)
    for tag, idx in groups.items():
        assert np.array_equal(np.sort(tags[idx]), found[tag])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), ll=st.floats(0.2, 0.8))
def test_prop_kdtree_equals_brute_force(seed, ll):
    """k-d FOF must equal the O(n²) graph components for random input."""
    local = np.random.default_rng(seed)
    pos = local.uniform(0, 5, (80, 3))
    result = fof_kdtree(pos, ll, min_count=1)
    # brute force via union of all close pairs
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(80))
    ii, jj = np.nonzero(np.triu(d2 <= ll * ll, k=1))
    g.add_edges_from(zip(ii.tolist(), jj.tolist()))
    comps = list(nx.connected_components(g))
    assert result.n_halos == len(comps)
    for comp in comps:
        assert len({result.labels[i] for i in comp}) == 1


# -- golden digests ----------------------------------------------------------------
#
# The clustered-field digest was recorded at ea6c278 (cell-grid
# ``fof_grid``) by running exactly these helpers with that commit's
# ``src`` on the path.  Do not regenerate pins with the code under test.
# The mini_sim digest pins ``parallel_fof``, so it was derived from the
# *serial* periodic finder instead: ``fof_grid(pos, ll, tags=tags,
# min_count=10, box=box)`` on the same particles, grouped by
# ``halo_groups`` into the ``halo tag -> sorted member tags`` form
# ``_parallel_digest`` hashes.  Every rank count must reproduce it.


def _clustered_field(seed, n):
    """Bench-style clustered periodic field at unit mean spacing."""
    rng = np.random.default_rng(seed)
    box = float(round(n ** (1 / 3)))
    n_blob = n // 4
    centers = rng.uniform(0, box, (max(n // 2000, 8), 3))
    blob = centers[rng.integers(0, len(centers), n_blob)] + rng.normal(0, 0.15, (n_blob, 3))
    pos = np.mod(np.concatenate([blob, rng.uniform(0, box, (n - n_blob, 3))]), box)
    return pos, box


def _golden_field_result():
    pos, box = _clustered_field(2015, 2**16)
    tags = np.random.default_rng(7).permutation(len(pos)) + 100
    return fof_grid(pos, 0.2, tags=tags, min_count=10, box=box)


def _golden_mini_sim_halos(sim, nranks):
    box = sim.config.box
    ll = 0.2 * box / sim.config.np_per_dim
    pos = np.asarray(sim.particles.pos, dtype=float)
    tags = np.asarray(sim.particles.tag, dtype=np.int64)
    return _parallel_halos(pos, tags, box, nranks, ll, overload=8 * ll, min_count=10)


def test_golden_digest_clustered_periodic_field():
    r = _golden_field_result()
    assert (r.n_halos, int((r.labels >= 0).sum())) == (32, 16355)
    assert catalog_sha256(r.labels, r.halo_tags, r.halo_counts) == (
        "77ff3ae4b2d38e309bded2d0ddff4378da6dfcaa3e0413c1f4a676766c90acd3"
    )


MINI_SIM_HALOS = 68
MINI_SIM_DIGEST = "d76d5c412b5f9f1aad159b2d2173dab96623477164a9066dfe034bb4b876db02"


@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 8])
def test_golden_digest_mini_sim_parallel(mini_sim, nranks):
    halos = _golden_mini_sim_halos(mini_sim, nranks)
    assert len(halos) == MINI_SIM_HALOS
    assert _parallel_digest(halos) == MINI_SIM_DIGEST


def _owned_halos_reference(roots, all_tag, n_owned, min_count):
    """The row rule, one component at a time: a component is the rank's
    iff the row carrying its minimum tag is an owned row."""
    order = np.argsort(roots, kind="stable")
    starts = np.flatnonzero(np.diff(roots[order], prepend=-1))
    out = {}
    for rows in np.split(order, starts[1:]):
        if len(rows) >= min_count and rows[np.argmin(all_tag[rows])] < n_owned:
            out[int(all_tag[rows].min())] = np.sort(all_tag[rows])
    return dict(sorted(out.items()))


class _RecordingComm:
    """A communicator that keeps what ``alltoall`` delivered."""

    def __init__(self, comm):
        self._comm = comm
        self.received = None

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def alltoall(self, send):
        self.received = self._comm.alltoall(send)
        return self.received


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_one_pass_ownership_equals_the_per_halo_loop(mini_sim, nranks, monkeypatch):
    """Each rank's halos equal the row rule applied halo by halo over the
    same rank-local link (1-wide axes linked periodically, no self-images)."""
    box = mini_sim.config.box
    ll = 0.2 * box / mini_sim.config.np_per_dim
    pos = np.asarray(mini_sim.particles.pos, dtype=float)
    tags = np.asarray(mini_sim.particles.tag, dtype=np.int64)
    roots_of = {}
    real = fof_module.link_components

    def recording_link(*args, **kwargs):
        roots = real(*args, **kwargs)
        roots_of[threading.get_ident()] = roots  # one thread per rank
        return roots

    def prog(comm):
        comm = _RecordingComm(comm)
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        mine = decomp.rank_of_position(pos) == comm.rank
        got = parallel_fof(comm, decomp, pos[mine], tags[mine], ll, 8 * ll, min_count=10)
        assert len(comm.received[comm.rank]["tag"]) == 0  # a rank sends itself nothing
        all_tag = np.concatenate([tags[mine], *(c["tag"] for c in comm.received)])
        assert len(np.unique(all_tag)) == len(all_tag)  # each particle reaches a rank once
        roots = roots_of[threading.get_ident()]
        return got, _owned_halos_reference(roots, all_tag, int(mine.sum()), 10)

    monkeypatch.setattr(fof_module, "link_components", recording_link)
    for got, want in run_spmd(nranks, prog, transport="thread"):
        assert list(got) == list(want)
        for tag, members in want.items():
            assert members.dtype == got[tag].dtype
            assert np.array_equal(members, got[tag])


# -- one catalog at every rank count, transport and pass ---------------------------


def _clumped_field(seed, box=40.0, n_clumps=12, per_clump=60, n_field=1500):
    """Tight clumps in a uniform field; about a third of the clump centres
    sit on a face of the box, so halos link through the wrap on every axis."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, box, (n_clumps, 3))
    centers[rng.random((n_clumps, 3)) < 1 / 3] = 0.0
    clumps = centers.repeat(per_clump, axis=0)
    clumps += rng.normal(0, 0.15, clumps.shape)
    pos = wrap_periodic(np.concatenate([clumps, rng.uniform(0, box, (n_field, 3))]), box)
    return pos, rng.permutation(len(pos)).astype(np.int64) + 1, box


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    nranks=st.integers(1, 8),  # primes give 1-wide axes, 8 gives none
    transport=st.sampled_from(["thread", "process"]),
    chunk_rows=st.integers(64, 1024),
)
@example(seed=0, nranks=7, transport="process", chunk_rows=100)
@example(seed=1, nranks=2, transport="thread", chunk_rows=500)
def test_prop_parallel_equals_serial_equals_streamed(seed, nranks, transport, chunk_rows):
    """``parallel_fof`` ≡ ``fof_grid(box=)`` ≡ ``StreamingFOF`` by
    ``catalog_sha256``: membership for the two in-memory finders, tags and
    counts for the streamed catalog, which keeps no members."""
    pos, tags, box = _clumped_field(seed)
    ll, min_count = 0.25, 10
    serial = fof_grid(pos, ll, tags=tags, min_count=min_count, box=box)
    assert serial.n_halos > 0
    groups = halo_groups(serial)
    want = _parallel_digest({t: np.sort(tags[idx]) for t, idx in groups.items()})
    halos = _parallel_halos(pos, tags, box, nranks, ll, 8 * ll, min_count, transport)
    assert _parallel_digest(halos) == want
    finder = StreamingFOF(box, ll, min_count=min_count)
    for chunk in ArrayStream(pos, box, tags=tags, chunk_rows=chunk_rows):
        finder.ingest(chunk["pos"], chunk["tag"])
    streamed = finder.finalize()
    assert catalog_sha256(streamed.halo_tags, streamed.halo_counts) == catalog_sha256(
        serial.halo_tags, serial.halo_counts
    )


# -- the production finder against both oracles ----------------------------------


def _mixed_field(seed, n, box, coincident):
    """Half clustered, half uniform; optionally with exact duplicates."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, box, (3, 3))
    clustered = centers[rng.integers(0, 3, n // 2)] + rng.normal(0, 0.05 * box, (n // 2, 3))
    pos = np.concatenate([clustered, rng.uniform(0, box, (n - n // 2, 3))])
    if coincident and n >= 2:
        pos[n // 2 :: 3] = pos[: len(pos[n // 2 :: 3])]
    return pos, rng.permutation(np.arange(10, 10 + n)).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.one_of(st.integers(0, 2), st.integers(3, 150)),
    ll_frac=st.floats(0.01, 0.7),  # of the box: past box/3 and past box/2
    box=st.floats(0.5, 50.0),
    coincident=st.booleans(),
    min_count=st.integers(1, 5),
)
def test_prop_fof_grid_equals_oracles(seed, n, ll_frac, box, coincident, min_count):
    """``fof_grid`` ≡ k-d tree oracle (open box) ≡ brute force (periodic)."""
    pos, tags = _mixed_field(seed, n, box, coincident)
    ll = ll_frac * box
    for periodic_box in (None, box):
        _assert_same_result(
            fof_grid(pos, ll, tags=tags, min_count=min_count, box=periodic_box),
            _oracle(pos, ll, periodic_box, tags, min_count),
        )


@pytest.mark.parametrize("box", [None, 2.0])
def test_link_threshold_is_inclusive(box):
    """``d == ll`` links, anything above does not.  Lattice spacing 0.25 is
    exact in binary, so every distance here is exact; with ``box=2`` the
    8-per-axis lattice also closes on itself through the wrap."""
    ll = 0.25
    lattice = np.stack(np.meshgrid(*[np.arange(8) * ll] * 3, indexing="ij"), -1).reshape(-1, 3)
    at = fof_grid(lattice, ll, min_count=1, box=box)
    assert np.array_equal(at.halo_counts, [len(lattice)])
    _assert_same_result(at, _oracle(lattice, ll, box))
    shorter = np.nextafter(ll, 0)
    below = fof_grid(lattice, shorter, min_count=1, box=box)
    assert below.n_halos == len(lattice)
    _assert_same_result(below, _oracle(lattice, shorter, box))


@pytest.mark.parametrize(
    "box, x_at_ll, apart",  # ``apart``: the direction of x that separates the pair
    [(None, 0.25, np.inf), (2.0, 1.75, -np.inf)],  # directly / through the wrap
)
def test_pair_one_ulp_past_linking_length_is_not_linked(box, x_at_ll, apart):
    for x, linked in [(x_at_ll, True), (np.nextafter(x_at_ll, apart), False)]:
        pos = np.array([[0.0, 1.0, 1.0], [x, 1.0, 1.0]])
        got = fof_grid(pos, 0.25, min_count=1, box=box)
        assert (got.n_halos == 1) == linked, (box, x)
        _assert_same_result(got, _oracle(pos, 0.25, box))


# -- fof_grid is the slab pipeline: every chunking, width and hand-off ------------


def _slab_field(seed, n, box, ll):
    """Clumps of spread ``ll`` in a uniform field, the first centred on the
    x = 0 face, so that a halo links through the x wrap; positions are
    left unwrapped."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, box, (4, 3))
    centers[0, 0] = 0.0
    clumps = centers[rng.integers(0, 4, n // 2)] + rng.normal(0, ll, (n // 2, 3))
    pos = np.concatenate([clumps, rng.uniform(0, box, (n - n // 2, 3))])
    return pos, rng.permutation(n).astype(np.int64) + 1


def _fof_grid_as(mp, chunk_rows, width, pooled):
    """``fof_grid`` in chunks of ``chunk_rows`` at link width ``width``,
    every piece on the link pool when ``pooled``."""
    mp.setattr(fof_module, "_CHUNK_ROWS", chunk_rows)
    mp.setattr(streaming_fof, "link_width", lambda: width)
    if pooled:
        mp.setattr(streaming_fof, "_POOL_ROWS", 0)
    return fof_grid


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(0, 300),
    chunk_rows=st.integers(1, 64),
    width=st.sampled_from([1, 2, 3]),
    pooled=st.booleans(),
    periodic=st.booleans(),
    min_count=st.integers(1, 6),
)
def test_prop_slab_driver_equals_oracles(seed, n, chunk_rows, width, pooled, periodic, min_count):
    """``fof_grid`` over many chunks and pieces, inline or pooled, ≡ the
    brute-force (periodic) and k-d tree (open) oracles: labels, tags, counts."""
    box, ll = 10.0, 0.3
    pos, tags = _slab_field(seed, n, box, ll)
    box = box if periodic else None
    with pytest.MonkeyPatch.context() as mp:
        got = _fof_grid_as(mp, chunk_rows, width, pooled)(
            pos, ll, tags=tags, min_count=min_count, box=box
        )
    _assert_same_result(got, _oracle(pos, ll, box, tags, min_count))


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("box", [None, 10.0])
def test_halos_across_piece_cuts_and_the_x_wrap_equal_the_oracle(monkeypatch, width, box):
    n, ll, chunk_rows = 600, 0.3, 50
    pos, tags = _slab_field(3, n, 10.0, ll)
    got = _fof_grid_as(monkeypatch, chunk_rows, width, pooled=True)(
        pos, ll, tags=tags, min_count=5, box=box
    )
    _assert_same_result(got, _oracle(pos, ll, box, tags, 5))
    # chunk ends are piece cuts; a halo holds the rows on both sides of one
    x = pos[:, 0] if box is None else wrap_periodic(pos, box)[:, 0]
    labels = got.labels[np.argsort(x, kind="stable")]
    cut = np.arange(chunk_rows, n, chunk_rows)
    assert ((labels[cut - 1] == labels[cut]) & (labels[cut] >= 0)).any()
    if box is not None:  # and one halo holds rows at both x faces
        low, high = set(got.labels[x < ll]), set(got.labels[x > box - ll])
        assert (low & high) - {-1}


def test_box_edge_positions_wrap_to_half_open_interval():
    """``np.mod(-1e-17, box)`` is ``box``; the tree needs ``[0, box)``."""
    box = 102.0
    edge = [-1e-17, box, np.nextafter(box, 0), np.nextafter(0, -1)]
    pos = np.array([[x, 5.0, 5.0] for x in edge] + [[0.1, 5.0, 5.0], [50.0, 5.0, 5.0]])
    for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):  # the edge on every axis
        p = pos[:, perm]
        got = fof_grid(p, 0.2, min_count=1, box=box)
        assert np.array_equal(got.halo_counts, [5, 1])
        _assert_same_result(got, _oracle(p, 0.2, box))


# -- the periodic link: an open tree over the rows and their face images ---------


def _face_field(seed, n, box, ll):
    """Each coordinate uniform, within ``ll`` of the low or the high face,
    at ``0`` or at ``np.nextafter(box, 0)``: rows near faces, edges and
    the corner, on both sides of the wrap."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, (n, 3))
    kind = rng.integers(0, 5, (n, 3))
    edge = np.full_like(u, np.nextafter(box, 0))
    return wrap_periodic(np.choose(kind, [u * box, u * ll, box - u * ll, 0 * u, edge]), box)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 60),
    box=st.floats(0.5, 50.0),
    ll_frac=st.one_of(st.floats(0.01, 0.9), st.just(0.5)),  # 0.5: ll just under box/2
)
def test_prop_periodic_link_equals_periodic_tree_and_brute_force(seed, n, box, ll_frac):
    ll = np.nextafter(box / 2, 0) if ll_frac == 0.5 else ll_frac * box
    pos = _face_field(seed, n, box, ll)
    got = finalize_reference(link_components(pos, ll, box), None, 1).labels
    assert np.array_equal(got, fof_periodic_tree(pos, ll, box, min_count=1).labels)
    assert np.array_equal(got, _fof_brute_periodic(pos, ll, box, None, 1).labels)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 60),
    box=st.floats(0.5, 50.0),
    ll_frac=st.floats(0.01, 0.45),
    periodic=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_prop_per_axis_periodic_link_equals_brute_force(seed, n, box, ll_frac, periodic):
    """``link_components(periodic=)`` ≡ the all-pairs oracle that stands in
    for it under ``parallel_fof``: minimum image on the chosen axes only."""
    ll = ll_frac * box
    pos = _face_field(seed, n, box, ll)
    periodic = np.asarray(periodic)
    got = finalize_reference(link_components(pos, ll, box, periodic), None, 1).labels
    want = finalize_reference(link_brute(pos, ll, box, periodic), None, 1).labels
    assert np.array_equal(got, want)


def _spy_components(mp):
    """Record ``(graph, (k, labels))`` of each ``connected_components`` call."""
    calls = []
    real = fof_module.connected_components

    def spy(graph, **kwargs):
        out = real(graph, **kwargs)
        calls.append((graph, out))
        return out

    mp.setattr(fof_module, "connected_components", spy)
    return calls, real


@pytest.mark.parametrize("ll_frac", [0.02, 0.2, 0.45])
def test_periodic_link_hands_components_each_pair_once(monkeypatch, ll_frac):
    """For ``box > 2 ll`` every minimum-image pair reaches the graph once:
    the image pairs that repeat a pair one box lower are dropped."""
    box = 10.0
    ll = ll_frac * box
    pos = _face_field(0, 300, box, ll)
    calls, _ = _spy_components(monkeypatch)
    link_components(pos, ll, box)
    ((graph, _),) = calls
    edges = graph.tocoo()
    lo, hi = np.minimum(edges.row, edges.col), np.maximum(edges.row, edges.col)
    got = np.unique(lo.astype(np.int64) * len(pos) + hi)
    assert len(got) == edges.nnz  # no pair twice, either way round
    assert np.all(lo < hi)  # no row linked to itself
    d = pos[:, None, :] - pos[None, :, :]
    d -= box * np.round(d / box)
    want_lo, want_hi = np.nonzero(np.triu(np.sum(d * d, axis=-1) <= ll * ll, k=1))
    assert np.array_equal(got, want_lo * len(pos) + want_hi)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 200),
    ll_frac=st.floats(0.01, 0.3),
    periodic=st.booleans(),
)
def test_prop_unique_pair_graph_labels_equal_the_canonical_csr(seed, n, ll_frac, periodic):
    """The graph marked canonical without scipy's per-row sort and
    duplicate sum labels components exactly as the fully canonicalised
    CSR of the same edges does."""
    box = 10.0
    pos = _face_field(seed, n, box, ll_frac * box)
    with pytest.MonkeyPatch.context() as mp:
        calls, real = _spy_components(mp)
        link_components(pos, ll_frac * box, box if periodic else None)
    ((graph, (k, labels)),) = calls
    edges = graph.tocoo()
    canonical = coo_matrix((edges.data, (edges.row, edges.col)), shape=graph.shape).tocsr()
    assert canonical.has_canonical_format
    k_ref, labels_ref = real(canonical, directed=False)
    assert k == k_ref
    assert np.array_equal(labels, labels_ref)


# -- the isolation pre-pass: a row it keeps out of the tree has no partner -------


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    ll=st.one_of(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 2.2]), st.floats(1e-3, 50.0)),
    origin=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    axis=st.integers(0, 2),
    n_pairs=st.integers(0, 300),
    n_loose=st.sampled_from([0, 0, 5, 40]),
    far=st.sampled_from([0.0, 0.0, 1e3, 1e6]),
)
@example(seed=0, ll=0.1, origin=-2.0, axis=0, n_pairs=5, n_loose=0, far=0.0)  # a side of 2 ll fails
def test_prop_prepass_keeps_every_row_with_a_partner(
    seed, ll, origin, axis, n_pairs, n_loose, far
):
    """Pairs ``ll`` apart (or one ulp less) along ``axis``, one end at a
    half-cell of the ``2 ll`` lattice anchored at the lowest point and
    three cells from the next pair: each row's only partner is a tie
    that a cell of side exactly ``2 ll`` can lose to rounding.  The
    other axes have zero extent, so the grid keeps its cell side until
    ``loose`` points fill the cube or a ``far`` point makes the box
    sparse enough for the cells to grow."""
    rng = np.random.default_rng(seed)
    side = 2 * ll
    half = np.full((n_pairs, 3), origin)
    half[:, axis] += (3 * np.arange(n_pairs) + 0.5) * side
    other = half.copy()
    end = half[:, axis] + rng.choice([-ll, ll], n_pairs)
    other[:, axis] = np.where(rng.random(n_pairs) < 0.5, end, np.nextafter(end, half[:, axis]))
    loose = origin + rng.uniform(0.0, 4 * side, (n_loose, 3))
    pos = np.concatenate([np.full((1, 3), origin), half, other, loose])
    if far:
        pos = np.concatenate([pos, np.full((1, 3), origin + far * side)])
    pairs = cKDTree(pos).query_pairs(ll, output_type="ndarray")
    assert np.isin(np.unique(pairs), fof_module._linkable(pos, ll)).all()
    graph = coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(len(pos),) * 2)
    _, roots = connected_components(graph, directed=False)
    assert np.array_equal(link_components(pos, ll), roots)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("box", [None, 1.0])
def test_prepass_on_the_smallest_inputs(n, box):
    pos = np.array([[0.0, 0.5, 0.5], [0.25, 0.5, 0.5]])[:n]
    assert np.array_equal(fof_module._linkable(pos, 0.25), np.arange(n) if n == 2 else [])
    got = finalize_reference(link_components(pos, 0.25, box), None, 1)
    assert got.n_halos == min(n, 1)


@pytest.mark.parametrize("n", [256, 257, 513])
def test_prepass_counts_a_crowded_cell_exactly(n):
    """Cell counts are kept mod 256 in a byte; a cell that full wraps to
    0 or 1 and is counted again, exactly."""
    pos = np.concatenate([np.zeros((n, 3)), [[5.0, 5.0, 5.0]]])
    assert np.array_equal(fof_module._linkable(pos, 0.1), np.arange(n))
    assert len(np.unique(link_components(pos, 0.1))) == 2


@pytest.mark.parametrize("box", [None, 12.0])
def test_an_isolated_field_never_enters_the_tree(monkeypatch, rng, box):
    """A perturbed lattice of spacing 1 with ``ll = 0.1``: every row is
    alone in its block, so the tree is built over zero rows."""
    rows = []
    real = fof_module.cKDTree

    def tree(data, **kwargs):
        rows.append(len(data))
        return real(data, **kwargs)

    monkeypatch.setattr(fof_module, "cKDTree", tree)
    g = np.arange(12.0)
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    pos += rng.uniform(-0.1, 0.1, pos.shape)
    if box is not None:
        pos = wrap_periodic(pos, box)
    roots = link_components(pos, 0.1, box)
    assert rows == [0]
    assert len(np.unique(roots)) == len(pos)
