"""Fused spectral PM engine vs the oracle pipeline.

Cross-validates :class:`repro.sim.pmsolver.PMSolver` (4-FFT fusion, one
sparse CIC operator for scatter and gather) against the original
function-at-a-time chain in :mod:`tests.oracles.pm_reference`, and checks
the solver's physical and reproducibility contracts: determinism,
momentum conservation, buffer non-aliasing, and telemetry accounting.
"""

import dataclasses
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft

from repro import obs
from repro.check import check_determinism
from repro.sim import HACCSimulation, SimulationConfig, pmsolver
from repro.sim.pmsolver import (
    PMSolver,
    clear_solver_cache,
    get_solver,
    resolve_fft_workers,
)
from tests.oracles.pm_reference import (
    cic_deposit,
    cic_interpolate,
    gradient_spectral,
    pm_accelerations,
    solve_poisson,
)

BLOCK = pmsolver._BLOCK_ROWS


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture(autouse=True)
def _stop_pool_threads():
    """Stop the ``pm-rows`` threads of every solver a test left with a pool.

    A solver kept alive by a reference cycle (a ``pytest.raises``
    traceback holds its frame) otherwise loses its threads at some later
    garbage collection, inside whichever test runs then, and a test that
    compares ``threading.active_count()`` before and after sees them go.
    """
    yield
    for solver in list(pmsolver._POOLED):
        solver._drop_pool()


# -- cross-validation against the reference pipeline --------------------------


@pytest.mark.parametrize("ng", [8, 16, 33])
def test_fused_matches_reference_accelerations(rng, ng):
    pos = rng.uniform(0, ng, (2500, 3))
    factor = 1.7
    ref = pm_accelerations(pos, ng, factor)
    fused = PMSolver(ng).accelerations(pos, factor)
    scale = np.abs(ref).max()
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12 * scale)


def test_deposit_matches_reference(rng):
    ng = 16
    pos = rng.uniform(0, ng, (3000, 3))
    ref = cic_deposit(pos, ng)
    fused = PMSolver(ng).deposit(pos)
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12)


def test_deposit_matches_reference_weighted(rng):
    ng = 12
    pos = rng.uniform(0, ng, (1000, 3))
    w = rng.uniform(0.5, 2.0, 1000)
    np.testing.assert_allclose(
        PMSolver(ng).deposit(pos, weights=w),
        cic_deposit(pos, ng, weights=w),
        rtol=1e-10,
        atol=1e-12,
    )


def test_potential_matches_solve_poisson(rng):
    ng = 16
    delta = rng.standard_normal((ng, ng, ng))
    delta -= delta.mean()
    np.testing.assert_allclose(
        PMSolver(ng).potential(delta, factor=2.5),
        solve_poisson(delta, factor=2.5),
        rtol=1e-10,
        atol=1e-12,
    )


def test_inverse_gradient_is_minus_grad_phi(rng):
    ng = 16
    delta = rng.standard_normal((ng, ng, ng))
    delta -= delta.mean()
    phi = solve_poisson(delta, factor=1.0)
    ref = -gradient_spectral(phi)
    fused = PMSolver(ng).inverse_gradient(delta)
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12)


# -- the CIC operator: scatter = Wᵀ, gather = W --------------------------------


def edge_positions(seed, n, ng):
    """Random cloud spanning [-ng, 2ng) with the periodic edge cases planted."""
    pos = np.random.default_rng(seed).uniform(-ng, 2 * ng, (n, 3))
    edges = np.asarray(
        [[0.0, 0.0, 0.0], [ng, ng, ng], [-0.25, ng + 0.5, 0.0], [-1e-20, ng, 2.5 * ng]]
    )
    k = min(n, len(edges))
    pos[:k] = edges[:k]
    return pos


operator_cases = given(
    seed=st.integers(0, 2**31 - 1),
    # fixed sizes around 4096-row block edges; the particle-pass blocks
    # and their split across threads are covered by SPLIT_SIZES below
    n=st.sampled_from([1, 4095, 4096, 4097, 8209]),
    ng=st.sampled_from([2, 6, 32, 48]),
    weighted=st.booleans(),
)


@settings(max_examples=30, deadline=None)
@operator_cases
def test_scatter_matches_oracle_deposit(seed, n, ng, weighted):
    """Property: ``Wᵀ @ m`` ≡ the 8 × ``np.add.at`` deposit, raw and normalized."""
    pos = edge_positions(seed, n, ng)
    w = np.random.default_rng(seed + 1).uniform(0.5, 2.0, n) if weighted else None
    solver = PMSolver(ng)
    for normalize in (True, False):
        ref = cic_deposit(pos, ng, weights=w, normalize=normalize)
        got = solver.deposit(pos, weights=w, normalize=normalize)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # mass conservation: Σδ = 0
    assert abs(solver.deposit(pos, weights=w).mean()) < 1e-12


@settings(max_examples=30, deadline=None)
@operator_cases
def test_gather_matches_oracle_interpolate(seed, n, ng, weighted):
    """Property: ``W @ mesh`` ≡ ``cic_interpolate``; rows of W sum to 1; W ⊥ Wᵀ."""
    pos = edge_positions(seed, n, ng)
    rng = np.random.default_rng(seed + 2)
    field = rng.standard_normal((3, ng, ng, ng))
    op = PMSolver(ng)._operator(pos)
    mesh = field.reshape(3, ng**3).T
    got = op @ mesh
    np.testing.assert_allclose(
        got, cic_interpolate(field, pos), rtol=1e-12, atol=1e-12 * np.abs(field).max()
    )
    np.testing.assert_allclose(op @ np.ones(ng**3), 1.0, rtol=0, atol=1e-15)
    # adjointness ⟨Wᵀm, f⟩ = ⟨m, W f⟩ (what makes the PM force momentum-conserving)
    m = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
    lhs = (op.T @ m) @ mesh[:, 0]
    rhs = m @ got[:, 0]
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11 * np.abs(m).sum())


def test_gather_bit_identical_to_take_einsum(rng):
    """The single ``W @ mesh`` sums the 8 corners in the order the
    per-axis ``take`` + ``einsum("cn,cn->n")`` gather it replaced did."""
    ng, n = 16, 3000
    pos = rng.uniform(0, ng, (n, 3))
    field = rng.standard_normal((3, ng, ng, ng))
    op = PMSolver(ng)._operator(pos)
    flat = np.ascontiguousarray(op.indices.reshape(n, 8).T)
    w8 = np.ascontiguousarray(op.data.reshape(n, 8).T)
    ref = np.empty((n, 3))
    for axis in range(3):
        np.einsum("cn,cn->n", w8, field[axis].reshape(-1)[flat], out=ref[:, axis])
    np.testing.assert_array_equal(op @ field.reshape(3, ng**3).T, ref)


def test_block_size_bit_identical(rng, monkeypatch):
    ng = 12
    pos = rng.uniform(-ng, 2 * ng, (1000, 3))
    w = rng.uniform(0.5, 2.0, 1000)
    whole = PMSolver(ng).accelerations(pos, 1.3, weights=w)
    whole_delta = PMSolver(ng).deposit(pos)
    monkeypatch.setattr(pmsolver, "_BLOCK_ROWS", 7)
    np.testing.assert_array_equal(PMSolver(ng).accelerations(pos, 1.3, weights=w), whole)
    np.testing.assert_array_equal(PMSolver(ng).deposit(pos), whole_delta)


def test_operator_buffers_reused_across_particle_counts(rng):
    """deposit → accelerations → deposit at two n on one cached solver."""
    ng = 8
    clear_solver_cache()
    try:
        solver = get_solver(ng)
        small = rng.uniform(0, ng, (300, 3))
        large = rng.uniform(0, ng, (BLOCK + 5, 3))
        d_small = solver.deposit(small)
        a_large = solver.accelerations(large, 1.0)
        d_large = solver.deposit(large)
        assert solver._op.shape == (len(large), ng**3)
        np.testing.assert_array_equal(solver.deposit(small), d_small)
        assert solver._op.shape == (len(small), ng**3)
        np.testing.assert_array_equal(PMSolver(ng).accelerations(large, 1.0), a_large)
        np.testing.assert_array_equal(PMSolver(ng).deposit(large), d_large)
    finally:
        clear_solver_cache()


def test_index_dtype_and_overflow_are_loud():
    assert pmsolver._index_dtype(64**3, 64) is np.int32
    assert pmsolver._index_dtype(2**28 - 1, 64) is np.int32  # 8n = 2³¹ - 8
    assert pmsolver._index_dtype(2**28, 64) is np.int64  # 8n = 2³¹
    assert pmsolver._index_dtype(10, 1291) is np.int64  # ng³ > 2³¹
    solver = PMSolver(8)
    assert solver._operator(np.zeros((5, 3))).indices.dtype == np.int32
    with pytest.raises(FloatingPointError):  # cell number beyond int32
        solver.deposit(np.asarray([[1e12, 0.0, 0.0]]))
    with pytest.raises(FloatingPointError):
        solver.deposit(np.asarray([[np.nan, 0.0, 0.0]]))


def test_concurrent_deposits_on_one_cached_solver(rng):
    """A cached solver is shared by the sim loop and in-situ power spectra
    on the pipelined manager's worker thread: its buffers must not race."""
    ng, n_threads = 8, 6
    solver = PMSolver(ng)
    clouds = [rng.uniform(0, ng, (BLOCK + 100 * i, 3)) for i in range(n_threads)]
    expected = [PMSolver(ng).deposit(c) for c in clouds]
    mismatches = [0] * n_threads
    deadline = time.monotonic() + 1.5

    def work(i):
        while time.monotonic() < deadline:
            mismatches[i] += not np.array_equal(solver.deposit(clouds[i]), expected[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [0] * n_threads


# -- physical/reproducibility contracts ----------------------------------------


def test_accelerations_deterministic(rng):
    ng = 16
    pos = rng.uniform(0, ng, (2000, 3))
    solver = PMSolver(ng)
    report = check_determinism(lambda: solver.accelerations(pos, 1.0), runs=3)
    assert report.ok


def test_momentum_conservation_single_eval(rng):
    """Matched CIC scatter/gather + antisymmetric spectral gradient
    conserve total momentum: net force vanishes to machine precision."""
    ng = 16
    pos = rng.uniform(0, ng, (5000, 3))
    acc = PMSolver(ng).accelerations(pos, 1.5)
    net = np.abs(acc.sum(axis=0)).max()
    assert net <= 1e-12 * np.abs(acc).sum()


def test_momentum_conservation_multi_step():
    """Total code momentum stays conserved across an N-body integration."""
    sim = HACCSimulation(
        SimulationConfig(np_per_dim=12, box=30.0, z_initial=30.0, n_steps=8)
    )
    p0 = sim.particles.vel.sum(axis=0)
    scale0 = np.abs(sim.particles.vel).sum()
    sim.run()
    p1 = sim.particles.vel.sum(axis=0)
    drift = np.abs(p1 - p0).max()
    scale = max(scale0, np.abs(sim.particles.vel).sum())
    assert drift <= 1e-10 * scale


def test_simulation_run_twice_is_bit_identical():
    def run():
        sim = HACCSimulation(
            SimulationConfig(np_per_dim=16, box=40.0, z_initial=30.0, n_steps=5)
        )
        sim.run()
        return sim.particles.pos, sim.particles.vel

    assert check_determinism(run, runs=2).ok


def test_fused_and_reference_backends_agree_over_run(monkeypatch):
    cfg = SimulationConfig(np_per_dim=10, box=25.0, z_initial=30.0, n_steps=5)
    fused = HACCSimulation(cfg)
    ref = HACCSimulation(cfg)
    monkeypatch.setattr(
        ref.pm,
        "accelerations",
        lambda pos, factor, cell: pm_accelerations(pos / cell, ref.pm.ng, factor) * cell,
    )
    ref.run()
    monkeypatch.undo()
    fused.run()
    ref.run()
    np.testing.assert_allclose(
        fused.particles.pos, ref.particles.pos, rtol=1e-8, atol=1e-9 * 25.0
    )
    np.testing.assert_allclose(
        fused.particles.vel, ref.particles.vel, rtol=1e-8, atol=1e-10
    )


def test_returned_arrays_not_aliased_to_scratch(rng):
    ng = 8
    solver = PMSolver(ng)
    pos = rng.uniform(0, ng, (300, 3))
    first = solver.accelerations(pos, 1.0)
    snapshot = first.copy()
    second = solver.accelerations(rng.uniform(0, ng, (300, 3)), 1.0)
    assert first is not second
    np.testing.assert_array_equal(first, snapshot)  # untouched by reuse


def test_empty_and_validation():
    solver = PMSolver(8)
    acc = solver.accelerations(np.empty((0, 3)), 1.0)
    assert acc.shape == (0, 3)
    assert np.array_equal(solver.deposit(np.empty((0, 3))), np.zeros((8, 8, 8)))
    with pytest.raises(ValueError, match="ng must be"):
        PMSolver(1)
    with pytest.raises(TypeError, match="pm_backend"):  # the fork is gone
        SimulationConfig(pm_backend="reference")


# -- caching / configuration ---------------------------------------------------


def test_get_solver_caches_per_ng_and_workers():
    clear_solver_cache()
    try:
        a = get_solver(16, workers=2)
        assert get_solver(16, workers=2) is a
        assert get_solver(16, workers=1) is not a
        assert get_solver(8, workers=2) is not a
    finally:
        clear_solver_cache()


def _race_a_cold_get_solver(n_threads):
    clear_solver_cache()
    got = [None] * n_threads
    start = threading.Barrier(n_threads, timeout=30)

    def race(i):
        start.wait()
        got[i] = get_solver(24, workers=2)

    threads = [threading.Thread(target=race, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    return got


def test_get_solver_is_atomic_under_concurrency():
    """Threads racing a cold cache all get the one solver (and so share
    one set of operator buffers, one fft_count and one pool)."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = _race_a_cold_get_solver(8)
            assert len({id(s) for s in got}) == 1
            assert got[0] is get_solver(24, workers=2)
    finally:
        sys.setswitchinterval(interval)
        clear_solver_cache()


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("pm-rows")]


def test_clear_solver_cache_stops_the_pool_threads():
    clear_solver_cache()
    baseline = len(_pool_threads())
    solver = get_solver(8, workers=3)
    pos = edge_positions(3, 3 * BLOCK + 7, 8)
    expected = solver.deposit(pos)
    assert len(_pool_threads()) > baseline
    clear_solver_cache()
    assert len(_pool_threads()) == baseline
    # a solver still held elsewhere starts a new pool on its next split pass
    np.testing.assert_array_equal(solver.deposit(pos), expected)
    solver._drop_pool()
    assert len(_pool_threads()) == baseline


def test_resolve_fft_workers(monkeypatch):
    assert resolve_fft_workers(3) == 3
    assert resolve_fft_workers(0) == 1  # clamped
    monkeypatch.setenv("REPRO_PM_WORKERS", "5")
    assert resolve_fft_workers() == 5
    monkeypatch.delenv("REPRO_PM_WORKERS")
    assert resolve_fft_workers() >= 1


def test_default_pm_workers_follow_the_affinity_mask(monkeypatch):
    # under taskset or a cpuset the PM starts no more threads than the
    # process may run on, whatever the machine's CPU count
    monkeypatch.delenv("REPRO_PM_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert resolve_fft_workers() == 1



def test_transforms_beside_a_forking_thread():
    # pocketfft stops its pool for the length of each fork: a transform
    # submitted meanwhile used to raise "Work item submitted after shutdown"
    from repro.parallel import run_spmd

    solver = PMSolver(32, workers=2)
    delta = np.random.default_rng(3).standard_normal((32, 32, 32))
    expected = solver.inverse_gradient(delta)
    stop = threading.Event()
    errors = []

    def transforms():
        while not stop.is_set():
            try:
                np.testing.assert_array_equal(solver.inverse_gradient(delta), expected)
            except Exception as exc:  # collected for the assert below
                errors.append(exc)

    thread = threading.Thread(target=transforms)
    thread.start()
    try:
        for _ in range(10):
            assert run_spmd(2, lambda comm: comm.rank, transport="process") == [0, 1]
    finally:
        stop.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert errors == []


SPLIT_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17, 3 * BLOCK + 7]


def test_worker_count_bit_identical():
    """The FFTs and the row ranges of the particle passes change nothing:
    every row is computed by the same operations at any worker count."""
    ng = 8
    solvers = [PMSolver(ng, workers=workers) for workers in (1, 2, 3, 4, 8)]
    for n in SPLIT_SIZES:
        pos = edge_positions(n, n, ng)  # spans [-ng, 2ng): folded periodically
        w = np.random.default_rng(n).uniform(0.5, 2.0, n)
        serial = solvers[0]
        a1 = serial.accelerations(pos, 1.3, weights=w)
        d1 = serial.deposit(pos, weights=w, normalize=False)
        for solver in solvers[1:]:
            np.testing.assert_array_equal(solver.accelerations(pos, 1.3, weights=w), a1)
            np.testing.assert_array_equal(
                solver.deposit(pos, weights=w, normalize=False), d1
            )
        # and the blocked gather is scipy's own W @ mesh, row for row, also
        # after an in-place refill (a block view that copied would be stale)
        mesh = np.random.default_rng(n).standard_normal((ng**3, 3))
        for solver in solvers:
            for refill in (pos, pos[::-1]):
                op = solver._operator(refill)
                np.testing.assert_array_equal(solver._gather(mesh), op @ mesh)


def face_positions(seed, n, box):
    """Uniform in ``[0, box]`` with rows planted on the faces, edges and
    corners: at ``0``, at ``box`` and just below ``box``."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, box, (n, 3))
    kind = rng.integers(0, 4, (n, 3))
    faces = [u, np.zeros_like(u), np.full_like(u, box), np.full_like(u, np.nextafter(box, 0))]
    return np.choose(kind, faces)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ng=st.sampled_from([7, 8, 16]),
    n=st.sampled_from([1, 255, 256, 257, 700]),
    cell=st.sampled_from([1.0, 0.37, 200.0 / 64, 75.0 / 48]),
    weighted=st.booleans(),
)
def test_prop_box_units_equal_grid_units_times_cell(seed, ng, n, cell, weighted):
    """``accelerations(pos, f, cell=c)`` ≡ ``accelerations(pos / c, f) * c``
    exactly, at 1, 2 and 3 workers: the unit changes done per block inside
    the operator fill and the gather are the caller's two passes, row for
    row.  Blocks shrunk to 256 rows, so the passes split unevenly."""
    pos = face_positions(seed, n, ng * cell)
    w = np.random.default_rng(seed + 1).uniform(0.5, 2.0, n) if weighted else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pmsolver, "_BLOCK_ROWS", 256)
        expected = PMSolver(ng, workers=1).accelerations(pos / cell, 1.3, weights=w) * cell
        for workers in (1, 2, 3):
            solver = PMSolver(ng, workers=workers)
            got = solver.accelerations(pos, 1.3, weights=w, cell=cell)
            np.testing.assert_array_equal(got, expected)
            solver._drop_pool()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("ng", [7, 8, 16])
def test_inverse_gradient_equals_three_inverse_transforms(rng, ng, workers):
    """The batched spectral stage (k-space products split over k_x planes,
    unevenly for odd ``ng``; one inverse over the three components) is
    the former one-``irfftn``-per-axis form, bit for bit."""
    delta = rng.standard_normal((ng, ng, ng))
    solver = PMSolver(ng, workers=workers)
    dk = sp_fft.rfftn(delta, workers=workers)
    expected = np.stack(
        [
            sp_fft.irfftn(2.5 * kern * dk, s=delta.shape, workers=workers)
            for kern in solver._grad_kernels
        ]
    )
    np.testing.assert_array_equal(solver.inverse_gradient(delta, 2.5), expected)
    assert solver.fft_count == 4
    solver._drop_pool()


def test_three_step_trajectory_equal_at_any_worker_count_and_to_grid_units(monkeypatch):
    """A 3-step run on an odd mesh (its k_x planes split unevenly) is
    byte-identical at 1, 2 and 3 PM workers, and to the run whose caller
    converts units itself: ``accelerations(pos / cell, f) * cell``."""
    cfg = SimulationConfig(np_per_dim=12, ng=15, box=30.0, z_initial=30.0, n_steps=3)
    monkeypatch.setattr(pmsolver, "_BLOCK_ROWS", 500)
    grid_units = PMSolver.accelerations

    def run(workers, caller_converts=False):
        clear_solver_cache()
        sim = HACCSimulation(dataclasses.replace(cfg, fft_workers=workers))
        if caller_converts:
            monkeypatch.setattr(
                sim.pm,
                "accelerations",
                lambda pos, factor, cell: grid_units(sim.pm, pos / cell, factor) * cell,
            )
        sim.run()
        return sim.particles.pos.tobytes(), sim.particles.vel.tobytes()

    try:
        reference = run(1, caller_converts=True)
        for workers in (1, 2, 3):
            assert run(workers) == reference
    finally:
        clear_solver_cache()


def test_row_ranges_partition_whole_blocks():
    for n in SPLIT_SIZES:
        for workers in (1, 2, 3, 8):
            ranges = pmsolver._row_ranges(n, workers)
            assert len(ranges) == min(workers, -(-n // BLOCK))
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo and lo % BLOCK == 0
            assert all(hi > lo for lo, hi in ranges)


def test_error_in_the_last_range_is_raised_on_the_caller():
    """The FP mode is per thread: a NaN that only the last thread's range
    sees must still raise, and the solver must work afterwards."""
    ng, n = 8, 3 * BLOCK + 7
    pos = edge_positions(1, n, ng)
    solver = PMSolver(ng, workers=4)
    assert pmsolver._row_ranges(n, solver.workers)[-1][0] <= n - 1
    expected = PMSolver(ng, workers=1).accelerations(pos, 1.0)
    bad = pos.copy()
    bad[-1, 2] = np.nan
    for _ in range(2):
        with pytest.raises(FloatingPointError):
            solver.accelerations(bad, 1.0)
        with pytest.raises(FloatingPointError):
            solver.deposit(bad)
    np.testing.assert_array_equal(solver.accelerations(pos, 1.0), expected)


def test_forked_child_runs_the_passes_without_the_parent_threads(tmp_path):
    """A forked child has none of the parent's pool threads; its first
    force evaluation must not wait on them, and must agree bit for bit."""
    ng, n = 8, 2 * BLOCK + 17
    pos = edge_positions(2, n, ng)
    solver = PMSolver(ng, workers=2)
    parent = solver.accelerations(pos, 1.0)
    assert solver._threads is not None  # the split ran on the pool
    out = tmp_path / "child.npy"

    def child():
        np.save(out, solver.accelerations(pos, 1.0))

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child hung on its parent's pool threads")
    assert proc.exitcode == 0
    np.testing.assert_array_equal(np.load(out), parent)


# -- telemetry accounting ------------------------------------------------------


def test_fft_accounting_and_counters(rng):
    ng = 8
    pos = rng.uniform(0, ng, (200, 3))
    with obs.telemetry() as rec:
        solver = PMSolver(ng)
        solver.accelerations(pos, 1.0)
        assert solver.fft_count == 4  # the fusion claim: 4, not 6
        solver.accelerations(pos, 1.0)
        assert solver.fft_count == 8
        assert rec.counter("pm_force_evals_total").value == 2
        assert rec.counter("pm_fft_total").value == 8
        stages = [s.name for s in rec.tracer.snapshot()]
        for stage in ("sim.pm.deposit", "sim.pm.fft", "sim.pm.gather"):
            assert stages.count(stage) == 2


def test_pm_timers_cover_the_force_evaluation():
    """No unattributed time: the three ``sim.pm.*`` stage spans cover
    ≥ 90 % of the wall of ``accelerations()`` (the operator build used
    to run before the first timer and was ~40 % of it)."""
    ng = 32
    pos = np.random.default_rng(5).uniform(0, ng, (ng**3, 3))
    solver = PMSolver(ng)
    body = PMSolver.accelerations.__wrapped__  # without the sanitizer's output walk
    body(solver, pos, 1.0)  # warm-up: buffers, FFT plans
    best = 0.0
    for _ in range(5):
        with obs.telemetry() as rec:
            t0 = time.perf_counter()
            body(solver, pos, 1.0)
            wall = time.perf_counter() - t0
            stages = [s for s in rec.tracer.snapshot() if s.name.startswith("sim.pm.")]
            best = max(best, sum(s.duration for s in stages) / wall)
    assert best >= 0.9
