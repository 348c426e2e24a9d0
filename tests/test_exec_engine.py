"""The work-stealing multi-process execution engine.

Covers the engine's contract end to end: zero-copy shared-memory
arrays, cost-model-guided work decomposition (LPT + chunking + giant
halo slab splitting), the one batch path for centers and subhalos —
bit-identical to the per-halo loop oracle
(:mod:`tests.oracles.centers_reference`) at every worker count, and
fork-free at one — crash isolation, telemetry (per-worker Chrome-trace
tracks + the Figure-4 imbalance gauge), and the scheduler's payload
execution hook.
"""

import inspect
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import (
    group_halo_members,
    halo_centers,
    mbp_center_bruteforce,
    potential_bruteforce,
)
from repro.analysis.centers import _BLOCK_ROWS, center_finding_cost
from repro.analysis.subhalos import find_subhalos
from repro.core import centers_from_level2_arrays, offline_center_job
from repro.exec import (
    ExecutionEngine,
    HaloWorkQueue,
    SharedParticleStore,
    WorkerError,
    WorkItem,
    default_workers,
    parallel_halo_centers,
    parallel_subhalos,
    shutdown_pool,
)
from repro.exec.pool import WorkerPool
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.insitu.algorithms import HaloCenterAlgorithm
from repro.machines.machine import MOONLIGHT
from repro.machines.scheduler import Job, Scheduler
from repro.obs.report import RunTelemetry
from tests.oracles.centers_reference import halo_centers_reference, potential_reference
from tests.oracles.lpt_schedule import covered_halos, modeled_imbalance

#: every width the engine is checked at: ``None``/1 run inline, 2/4 on the pool
WIDTHS = (None, 1, 2, 4)


def _clumps(rng, sizes, fluff=0):
    """Gaussian clumps of the given sizes, labelled ``10 * i``, plus ``fluff``
    unlabelled (-1) background particles, shuffled; tags are a permutation."""
    pos = np.concatenate(
        [rng.uniform(5, 95, 3) + rng.normal(0, 1.0, (s, 3)) for s in sizes]
        + [rng.uniform(0, 100, (fluff, 3))]
    )
    labels = np.repeat([*(10 * np.arange(len(sizes))), -1], [*sizes, fluff]).astype(np.int64)
    perm = rng.permutation(len(pos))
    return pos[perm], rng.permutation(len(pos)).astype(np.int64), labels[perm]


def _assert_same_centers(ref, got):
    """Every field of a :class:`HaloCentersResult`, bit for bit."""
    assert np.array_equal(ref.halo_tags, got.halo_tags)
    assert np.array_equal(ref.centers, got.centers)
    assert np.array_equal(ref.mbp_tags, got.mbp_tags)
    assert ref.mbp_tags.dtype == got.mbp_tags.dtype
    assert np.array_equal(ref.potentials, got.potentials)
    assert np.array_equal(ref.per_halo_pairs, got.per_halo_pairs)
    assert ref.stats == got.stats  # n_particles, pair_evaluations


# ---------------------------------------------------------------------------
# fixtures: a skewed catalog (the paper's Figure 4 shape)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def skewed_catalog():
    """One giant halo + many small ones + fluff, shuffled."""
    rng = np.random.default_rng(1234)
    return _clumps(rng, [700, *rng.integers(30, 90, size=24)], fluff=300)


# ---------------------------------------------------------------------------
# satellites: grouping and the reference kernel
# ---------------------------------------------------------------------------


def test_group_halo_members_matches_flatnonzero(skewed_catalog):
    _, _, labels = skewed_catalog
    halo_tags, groups = group_halo_members(labels)
    expected_tags = np.unique(labels[labels >= 0])
    assert np.array_equal(halo_tags, expected_tags)
    for tag, members in zip(halo_tags, groups):
        assert np.array_equal(members, np.flatnonzero(labels == tag))


def test_group_halo_members_select_tags(skewed_catalog):
    _, _, labels = skewed_catalog
    halo_tags, groups = group_halo_members(labels, select_tags=np.asarray([0, 40]))
    assert halo_tags.tolist() == [0, 40]
    assert all(np.array_equal(g, np.flatnonzero(labels == t)) for t, g in zip(halo_tags, groups))


def test_group_halo_members_empty():
    tags, groups = group_halo_members(np.full(10, -1, dtype=np.int64))
    assert len(tags) == 0 and groups == []


def test_potential_reference_cross_validates_blocked_kernel():
    rng = np.random.default_rng(5)
    pos = rng.normal(0, 1, (60, 3))
    ref = potential_reference(pos, mass=1.5, softening=1e-4)
    fast = potential_bruteforce(pos, mass=1.5, softening=1e-4)
    assert np.allclose(ref, fast, rtol=1e-12, atol=1e-12)


def test_potential_bruteforce_block_boundaries():
    rng = np.random.default_rng(6)
    pos = rng.normal(0, 1, (100, 3))
    a = potential_bruteforce(pos, block=7)
    b = potential_bruteforce(pos, block=2048)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# shared memory store
# ---------------------------------------------------------------------------


def test_shared_store_roundtrip():
    rng = np.random.default_rng(2)
    pos = rng.normal(0, 1, (100, 3))
    tags = np.arange(100, dtype=np.int64)
    store = SharedParticleStore.create(pos=pos, tags=tags)
    try:
        assert sorted(store.fields) == ["pos", "tags"]
        assert store.nbytes == pos.nbytes + tags.nbytes
        spec = store.spec
        attached = SharedParticleStore.attach(spec)
        try:
            assert np.array_equal(attached["pos"], pos)
            assert np.array_equal(attached["tags"], tags)
        finally:
            attached.close()
        assert np.array_equal(store["pos"], pos)
    finally:
        store.unlink()
    with pytest.raises(RuntimeError):
        store.array("pos")  # asserts use-after-unlink raises


def test_shared_store_empty_array_and_idempotent_unlink():
    store = SharedParticleStore.create(empty=np.empty(0, dtype=np.float64))
    assert store["empty"].size == 0
    store.unlink()
    store.unlink()  # asserts unlink is idempotent


# ---------------------------------------------------------------------------
# work queue
# ---------------------------------------------------------------------------


def test_workqueue_covers_every_halo_exactly():
    counts = np.asarray([5000, 400, 400, 60, 50, 45, 44, 43])
    q = HaloWorkQueue.build(counts, workers=4)
    covered = covered_halos(q)
    assert set(covered) == set(range(len(counts)))
    for h, spans in covered.items():
        if spans[0] == (0, 0):  # whole halo: exactly once
            assert spans == [(0, 0)]
        else:  # slabs: exact row partition
            spans = sorted(spans)
            assert spans[0][0] == 0 and spans[-1][1] == counts[h]
            for (_, e0), (s1, _) in zip(spans[:-1], spans[1:]):
                assert e0 == s1


def test_workqueue_splits_dominant_halo():
    counts = np.asarray([100_000, *([50] * 40)])
    q = HaloWorkQueue.build(counts, workers=4, min_split_rows=256)
    assert q.n_split_halos == 1
    slabs = [it for it in q.items if it.kind == "slab"]
    assert len(slabs) >= 2
    assert all(it.row_end - it.row_start >= 1 for it in slabs)
    # splitting must break the one-giant-pins-one-worker ceiling
    assert modeled_imbalance(q, 4) < 2.0
    # the Figure 4 projection: per-halo placement alone leaves one worker
    # pinned by the giant, row slabs project near-balance
    sizes = np.asarray([20_000] + [100] * 200)
    assert modeled_imbalance(HaloWorkQueue.build(sizes, workers=4, splittable=False), 4) > 2.0
    assert modeled_imbalance(HaloWorkQueue.build(sizes, workers=4, splittable=True), 4) < 1.5


def test_workqueue_not_splittable():
    counts = np.asarray([100_000, *([50] * 40)])
    q = HaloWorkQueue.build(counts, workers=4, splittable=False)
    assert q.n_split_halos == 0
    assert all(it.kind == "halos" for it in q.items)


def test_workqueue_chunks_small_halos():
    counts = np.asarray([40] * 200)
    q = HaloWorkQueue.build(counts, workers=2)
    assert q.n_items < 200  # amortized chunks, not one item per halo
    assert sum(it.n_halos for it in q.items) == 200


def test_workqueue_lpt_order():
    counts = np.asarray([900, 800, 700, 60, 55, 50, 45, 40])
    q = HaloWorkQueue.build(counts, workers=2, split_factor=0.5)
    item_costs = [it.cost for it in q.items]
    assert item_costs == sorted(item_costs, reverse=True)
    assert q.total_cost == int(center_finding_cost(counts).sum())


def test_workqueue_empty():
    q = HaloWorkQueue.build(np.empty(0, dtype=np.int64), workers=3)
    assert q.n_items == 0 and q.items == []


# ---------------------------------------------------------------------------
# determinism: engine == per-halo loop oracle, bit for bit, at every width
# ---------------------------------------------------------------------------


def test_parallel_centers_bit_identical(skewed_catalog):
    pos, tags, labels = skewed_catalog
    ref = halo_centers_reference(pos, tags, labels)
    for workers in WIDTHS:
        got = halo_centers(pos, tags, labels, workers=workers)
        _assert_same_centers(ref, got)
        assert got.exec_report.workers == (workers or 1)
        assert got.exec_report.n_halos == len(ref.halo_tags)


def test_parallel_centers_giant_halo_is_split(skewed_catalog):
    pos, tags, labels = skewed_catalog
    ref = halo_centers_reference(pos, tags, labels)
    for workers in (1, 2):
        eng = ExecutionEngine(workers=workers, min_split_rows=64)
        got = parallel_halo_centers(pos, tags, labels, engine=eng)
        assert got.exec_report.n_split_halos >= 1
        _assert_same_centers(ref, got)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_poisoned_slab_drops_its_whole_halo(workers):
    """A split halo whose MBP-holding slab is poisoned is absent from the
    result: the argmin over its surviving slabs would be a wrong center.
    The other halos, their pair counts and the stats equal the oracle's."""
    pos, tags, labels = _clumps(np.random.default_rng(3), [1200, 40, 30])
    halo_tags, groups = group_halo_members(labels)
    giant = int(np.argmax([len(g) for g in groups]))
    ref = halo_centers_reference(pos, tags, labels)
    mbp_row = int(np.flatnonzero(tags[groups[giant]] == ref.mbp_tags[giant])[0])
    eng = ExecutionEngine(workers=workers, item_retries=1, min_split_rows=64)
    work = eng.build_queue(np.asarray([len(g) for g in groups]))
    slab = next(
        i
        for i, it in enumerate(work.items)
        if it.kind == "slab" and it.row_start <= mbp_row < it.row_end
    )
    plan = FaultPlan(seed=0, sites={"exec.item": FaultSpec(always=True, keys=(str(slab),))})
    with fault_plan(plan):
        got = parallel_halo_centers(pos, tags, labels, engine=eng)
    report = got.exec_report
    assert report.n_split_halos == 1 and report.poisoned == [slab]
    assert halo_tags[giant] not in got.halo_tags
    survivors = np.delete(halo_tags, giant)
    _assert_same_centers(halo_centers_reference(pos, tags, labels, select_tags=survivors), got)
    # the failed slab's first attempt is still on the item log
    assert len(report.item_log) == report.n_items and report.item_failures >= 1


def test_parallel_centers_select_tags(skewed_catalog):
    pos, tags, labels = skewed_catalog
    pick = np.asarray([0, 30, 70])
    ref = halo_centers_reference(pos, tags, labels, select_tags=pick)
    assert ref.halo_tags.tolist() == [0, 30, 70]
    for workers in WIDTHS:
        _assert_same_centers(
            ref, halo_centers(pos, tags, labels, select_tags=pick, workers=workers)
        )


def test_parallel_centers_empty_catalog():
    pos = np.random.default_rng(0).uniform(0, 1, (50, 3))
    labels = np.full(50, -1, dtype=np.int64)
    tags = np.arange(50)
    ref = halo_centers_reference(pos, tags, labels)
    for workers in WIDTHS:
        got = halo_centers(pos, tags, labels, workers=workers)
        assert len(got.halo_tags) == 0 and got.centers.shape == (0, 3)
        _assert_same_centers(ref, got)
        assert got.exec_report.n_items == 0  # the report is set even for no work


def test_parallel_centers_one_particle_halo():
    """A 1-particle halo is its own MBP at potential 0 with no pair work."""
    rng = np.random.default_rng(8)
    pos, tags, labels = _clumps(rng, [1, 40, 1, 90])
    ref = halo_centers_reference(pos, tags, labels)
    assert ref.potentials[0] == 0.0 and ref.per_halo_pairs[0] == 0
    for workers in WIDTHS:
        _assert_same_centers(ref, halo_centers(pos, tags, labels, workers=workers))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    small=st.lists(st.integers(1, 120), min_size=0, max_size=12),
    dominant=st.sampled_from([0, 2 * 256, 2 * 256 + 37, 700]),
    select=st.booleans(),
)
def test_prop_one_worker_engine_equals_oracle(seed, small, dominant, select):
    """The inline width — what every in-situ batch runs at — against the
    oracle, over catalogs with and without a halo the queue slab-splits
    (``dominant >= 2 * min_split_rows`` and more than half the pair work)."""
    rng = np.random.default_rng(seed)
    sizes = small + ([dominant] if dominant else [])
    if not sizes:
        sizes = [1]
    pos, tags, labels = _clumps(rng, sizes)
    pick = np.unique(labels)[::2] if select else None
    ref = halo_centers_reference(pos, tags, labels, select_tags=pick)
    got = halo_centers(pos, tags, labels, select_tags=pick, workers=1)
    _assert_same_centers(ref, got)


def test_one_worker_batch_never_forks_or_touches_shm(skewed_catalog, monkeypatch):
    """``workers=None``/``1`` runs on the calling (in-situ) thread beside the
    listener: it must not fork, create a shared-memory segment, or take
    the shared-pool lock (ROADMAP item 4's fork-under-lock hazard)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-worker batch must stay in-process")

    monkeypatch.setattr(SharedParticleStore, "create", forbidden)
    monkeypatch.setattr(WorkerPool, "__init__", forbidden)
    pos, tags, labels = skewed_catalog
    ref = halo_centers_reference(pos, tags, labels)
    for workers in (None, 1):
        got = halo_centers(pos, tags, labels, workers=workers)
        assert got.exec_report.workers == 1
        assert got.exec_report.total_steals == 0
        _assert_same_centers(ref, got)
    got = parallel_halo_centers(pos, tags, labels, engine=ExecutionEngine(workers=1))
    _assert_same_centers(ref, got)


def test_width_below_one_is_rejected(skewed_catalog):
    """A width is at least one worker; only ``None`` asks for the default
    (``0`` used to mean every core to the engine and one to ``halo_centers``)."""
    pos, tags, labels = skewed_catalog
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least one worker"):
            ExecutionEngine(workers=bad)
        with pytest.raises(ValueError, match="at least one worker"):
            halo_centers(pos, tags, labels, workers=bad)
        with pytest.raises(ValueError, match="at least one worker"):
            parallel_halo_centers(pos, tags, labels, workers=bad, engine=ExecutionEngine())
        with pytest.raises(ValueError, match="at least one worker"):
            parallel_subhalos(pos, pos, {0: np.arange(10)}, workers=bad)
    assert ExecutionEngine().workers == ExecutionEngine(workers=None).workers == default_workers()


def test_steals_are_claims_past_the_lpt_head(skewed_catalog):
    """Workers claim the LPT list through one cursor: the first claim per
    worker is the head, every later one a steal — none at one worker."""
    pos, tags, labels = skewed_catalog
    for workers, head in ((1, None), (2, 2)):
        report = halo_centers(pos, tags, labels, workers=workers).exec_report
        assert report.n_items > 2
        assert report.total_steals == (0 if head is None else report.n_items - head)
        assert sum(it.stolen for it in report.item_log) == report.total_steals
    shutdown_pool()


def test_concurrent_pooled_batches_share_one_pool(skewed_catalog, monkeypatch):
    """Two threads run a two-worker batch at once: the second waits for the
    shared pool instead of forking a private one, so one pool is built."""
    shutdown_pool()
    built = []
    real_init = WorkerPool.__init__

    def counting_init(self, n_workers):
        built.append(n_workers)
        time.sleep(0.2)  # hold the pool while the other batch arrives
        real_init(self, n_workers)

    monkeypatch.setattr(WorkerPool, "__init__", counting_init)
    pos, tags, labels = skewed_catalog
    start = threading.Barrier(2)
    results = [None, None]

    def batch(i):
        start.wait()
        results[i] = parallel_halo_centers(pos, tags, labels, workers=2)

    threads = [threading.Thread(target=batch, args=(i,)) for i in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert built == [2]
        ref = halo_centers_reference(pos, tags, labels)
        for got in results:
            assert got is not None
            _assert_same_centers(ref, got)
    finally:
        shutdown_pool()


def test_a_batch_that_waits_for_the_pool_records_one_pool_wait(skewed_catalog, monkeypatch):
    """The second of two pooled batches waits for the shared pool inside an
    ``exec.pool_wait`` span on its own lane, under its own ``exec.run``;
    the batch that found the pool free records none."""
    from repro.exec import engine as engine_mod

    shutdown_pool()
    holding, waiting = threading.Event(), threading.Event()

    class SpyLock:
        """The pool lock, flagging a blocking acquire before it blocks."""

        def __init__(self, lock):
            self.lock = lock

        def acquire(self, blocking=True):
            if blocking:
                waiting.set()
            return self.lock.acquire(blocking)

        def release(self):
            self.lock.release()

        __enter__ = acquire

        def __exit__(self, *exc):
            self.release()

    real_submit = WorkerPool.submit

    def held_submit(self, *args):
        if threading.current_thread().name == "first-batch":
            holding.set()  # the first batch holds the pool...
            assert waiting.wait(60)  # ...until the second blocks on it
        return real_submit(self, *args)

    monkeypatch.setattr(engine_mod, "_SHARED_POOL_LOCK", SpyLock(engine_mod._SHARED_POOL_LOCK))
    monkeypatch.setattr(WorkerPool, "submit", held_submit)
    pos, tags, labels = skewed_catalog
    errors = []

    def batch():
        try:
            parallel_halo_centers(pos, tags, labels, workers=2)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    first = threading.Thread(target=batch, name="first-batch")
    second = threading.Thread(target=batch, name="second-batch")
    try:
        with obs.telemetry() as rec:
            first.start()
            assert holding.wait(60)
            second.start()
            for t in (first, second):
                t.join(timeout=120)
            snap = RunTelemetry.from_recorder(rec)
    finally:
        shutdown_pool()
    assert not first.is_alive() and not second.is_alive()
    assert errors == []
    (wait,) = [s for s in snap.spans if s.name == "exec.pool_wait"]
    (run,) = [s for s in snap.spans if s.name == "exec.run" and s.thread == "second-batch"]
    assert wait.thread == "second-batch" and wait.parent_id == run.span_id


def test_worker_count_has_one_spelling():
    """``workers=`` is the only way to ask for a width: no batch driver,
    kernel or algorithm takes a backend name that could route a batch."""
    for fn in (
        parallel_halo_centers,
        potential_bruteforce,
        mbp_center_bruteforce,
        centers_from_level2_arrays,
        offline_center_job,
    ):
        assert "backend" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(HaloCenterAlgorithm, "backend")


def test_the_center_path_has_one_kernel():
    """No batch driver, kernel or algorithm takes a ``method=`` that could
    select a second center finder, nor that finder's tree knobs."""
    for fn in (
        halo_centers,
        parallel_halo_centers,
        mbp_center_bruteforce,
        centers_from_level2_arrays,
        offline_center_job,
    ):
        knobs = {"method", "leaf_size", "near_factor"} & set(inspect.signature(fn).parameters)
        assert not knobs, fn.__name__
    assert not hasattr(HaloCenterAlgorithm, "method")


def test_halo_centers_backend_keyword_selects_nothing(skewed_catalog):
    """The one surviving ``backend=`` (the benchmark harness passes
    ``"vector"``) changes no bit; an unknown name is still rejected."""
    pos, tags, labels = skewed_catalog
    ref = halo_centers(pos, tags, labels)
    for name in ("vector", "serial"):
        _assert_same_centers(ref, halo_centers(pos, tags, labels, backend=name))
    with pytest.raises(ValueError, match="unknown backend"):
        halo_centers(pos, tags, labels, backend="gpu")


def test_slab_kernel_memory_is_bounded_like_the_whole_halo_kernel():
    """One 6000-particle halo cut into slabs wider than the row block of
    ``potential_bruteforce``: the whole-halo kernel peaks at one
    ``(block, n)`` pair temporary (not ``(rows, n, 3)``), and so does a slab."""
    rng = np.random.default_rng(11)
    n = 6000
    pos = rng.normal(50.0, 1.0, (n, 3))
    tags = np.arange(n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)

    def peak_of(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    phi, whole_peak = peak_of(lambda: potential_bruteforce(pos))
    best = (int(np.argmin(phi)), float(phi.min()))
    one_block = _BLOCK_ROWS * n * 8
    assert one_block <= whole_peak <= 1.05 * one_block, (whole_peak, one_block)

    # the queue's own cut of a lone halo at one worker: 2 x 3000 rows
    got, peak = peak_of(lambda: halo_centers(pos, tags, labels))
    assert got.exec_report.n_items == 2 and got.exec_report.n_split_halos == 1
    assert (int(got.mbp_tags[0]), float(got.potentials[0])) == best
    assert peak <= 1.05 * whole_peak, (peak, whole_peak)

    # a forced, lopsided cut: 4500 + 1500 rows
    slabs = [WorkItem("slab", (0,), r * (n - 1), s, s + r) for s, r in ((0, 4500), (4500, 1500))]
    work = HaloWorkQueue(items=slabs)
    arrays = {"pos": pos, "members": tags, "starts": np.asarray([0, n])}
    task = {"task": "centers", "mass": 1.0, "softening": 1e-5}
    (payloads, _), peak = peak_of(lambda: ExecutionEngine(workers=1).run(arrays, work, task))
    partials = [(phi_min, row) for _, entries in payloads for _, row, phi_min in entries]
    assert min(partials) == best[::-1]
    assert peak <= 1.05 * whole_peak, (peak, whole_peak)


def test_parallel_subhalos_bit_identical():
    rng = np.random.default_rng(77)
    halos, pos_list, vel_list = {}, [], []
    off = 0
    for t, s in [(3, 400), (9, 200), (17, 120), (25, 90)]:
        c = rng.uniform(0, 50, 3)
        p = np.concatenate(
            [c + rng.normal(0, 0.5, (s // 2, 3)), c + 3 + rng.normal(0, 0.3, (s - s // 2, 3))]
        )
        pos_list.append(p)
        vel_list.append(rng.normal(0, 0.2, (s, 3)))
        halos[t] = np.arange(off, off + s)
        off += s
    pos, vel = np.concatenate(pos_list), np.concatenate(vel_list)

    ref = {t: find_subhalos(pos[i], vel[i], mass=1.0, g_constant=1.0) for t, i in halos.items()}
    for workers in (1, 2):
        batch = parallel_subhalos(pos, vel, halos, mass=1.0, g_constant=1.0, workers=workers)
        assert set(batch.by_tag) == set(halos)
        for t in halos:
            a, b = ref[t], batch.by_tag[t]
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.subhalo_sizes, b.subhalo_sizes)
            assert a.n_candidates == b.n_candidates
            assert a.unbound_removed == b.unbound_removed
        assert set(batch.halo_seconds) == set(halos)
        assert batch.report is not None and batch.report.workers == workers


# ---------------------------------------------------------------------------
# crash isolation
# ---------------------------------------------------------------------------


def test_worker_crash_surfaces_without_hang():
    eng = ExecutionEngine(workers=2, result_timeout=60.0)
    counts = np.asarray([100] * 6)
    work = eng.build_queue(counts, splittable=False)
    arrays = {
        "pos": np.zeros((600, 3)),
        "members": np.arange(600, dtype=np.int64),
        "starts": np.arange(0, 700, 100, dtype=np.int64),
    }
    t0 = time.monotonic()
    with pytest.raises(WorkerError) as exc_info:
        eng.run(arrays, work, {"task": "explode", "message": "deliberate test crash"})
    assert time.monotonic() - t0 < 30.0  # surfaced promptly, no hang
    err = exc_info.value
    assert "deliberate test crash" in err.remote_traceback
    assert err.worker_id is not None


def test_engine_inline_path_single_worker(skewed_catalog):
    """One item on a wide engine still runs inline: width is capped by the work."""
    pos, tags, labels = skewed_catalog
    eng = ExecutionEngine(workers=4)
    res = parallel_halo_centers(pos, tags, labels, select_tags=np.asarray([30]), engine=eng)
    assert res.exec_report.n_items == 1 and res.exec_report.workers == 1
    _assert_same_centers(halo_centers_reference(pos, tags, labels, select_tags=[30]), res)


# ---------------------------------------------------------------------------
# telemetry: worker spans, imbalance gauge, Chrome trace
# ---------------------------------------------------------------------------


def test_engine_telemetry_spans_and_gauge(skewed_catalog, tmp_path):
    pos, tags, labels = skewed_catalog
    with obs.telemetry() as rec:
        halo_centers(pos, tags, labels, workers=2)
        snap = RunTelemetry.from_recorder(rec)
    names = {s.name for s in snap.spans}
    assert "exec.run" in names and "exec.item" in names
    worker_tracks = {s.thread for s in snap.spans if s.name == "exec.item"}
    assert {"exec-worker-0", "exec-worker-1"} <= worker_tracks
    # the Figure-4 gauge + steal counter; dispatch overhead rides each item span
    metrics = snap.metrics
    assert metrics["exec_load_imbalance_ratio"] >= 1.0
    assert metrics["exec_runs_total"] == 1
    assert metrics["exec_steals_total"] >= 0
    assert all(s.fields["overhead"] >= 0.0 for s in snap.spans if s.name == "exec.item")
    # phase report buckets exec time under its own phase
    assert "Parallel exec" in snap.phase_table()
    # Chrome trace export renders per-worker tracks
    path = tmp_path / "trace.json"
    snap.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    track_names = {
        e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    assert {"exec-worker-0", "exec-worker-1"} <= track_names


def test_inline_batch_is_attributed_once_in_the_phase_table(skewed_catalog):
    """A one-worker batch lands in the same "Parallel exec" row, with its item
    spans on the calling thread's lane under ``exec.run`` — so the gauges
    describe it and phase self-times still sum to the traced wall."""
    pos, tags, labels = skewed_catalog
    with obs.telemetry() as rec:
        res = halo_centers(pos, tags, labels)
        snap = RunTelemetry.from_recorder(rec)
    (run,) = [s for s in snap.spans if s.name == "exec.run"]
    items = [s for s in snap.spans if s.name == "exec.item"]
    assert len(items) == res.exec_report.n_items > 1
    assert all(s.parent_id == run.span_id and s.thread == run.thread for s in items)
    assert snap.metrics["exec_workers"] == 1 and snap.metrics["exec_load_imbalance_ratio"] == 1.0
    stats = snap.phase_stats()
    assert set(stats) == {"Parallel exec"}
    assert stats["Parallel exec"].self_seconds <= snap.wall_seconds + 1e-9


def test_record_span_api():
    with obs.telemetry() as rec:
        t0 = time.perf_counter()
        s = rec.record_span("exec.item", t0, t0 + 0.5, thread="exec-worker-9", cost=7)
        assert s.thread == "exec-worker-9"
        assert s.duration == pytest.approx(0.5)
        assert s.fields["cost"] == 7
        assert s in rec.tracer.snapshot()


# ---------------------------------------------------------------------------
# scheduler payload hook
# ---------------------------------------------------------------------------


def test_scheduler_executes_job_payload():
    sched = Scheduler(MOONLIGHT)
    ran: list[str] = []

    def work():
        ran.append("analysis")
        return 42

    sim = sched.submit(Job("sim", n_nodes=4, duration=10.0))
    job = sched.submit(Job("analysis", n_nodes=1, duration=5.0, after=[sim], payload=work))
    with obs.telemetry() as rec:
        sched.run()
        snap = RunTelemetry.from_recorder(rec)
    assert ran == ["analysis"]
    assert job.result == 42
    assert any(s.name == "scheduler.job_exec" for s in snap.spans)
    assert snap.metrics["scheduler_payloads_executed_total"] == 1
