"""Fused spectral PM engine vs the oracle pipeline.

Cross-validates :class:`repro.sim.pmsolver.PMSolver` (4-FFT fusion, one
sparse CIC operator for scatter and gather) against the original
function-at-a-time chain in :mod:`tests.oracles.pm_reference`, and checks
the solver's physical and reproducibility contracts: determinism,
momentum conservation, buffer non-aliasing, and telemetry accounting.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17]),
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
        ref.pm, "accelerations", lambda pos, factor: pm_accelerations(pos, ref.pm.ng, factor)
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


def test_resolve_fft_workers(monkeypatch):
    assert resolve_fft_workers(3) == 3
    assert resolve_fft_workers(0) == 1  # clamped
    monkeypatch.setenv("REPRO_PM_WORKERS", "5")
    assert resolve_fft_workers() == 5
    monkeypatch.delenv("REPRO_PM_WORKERS")
    assert resolve_fft_workers() >= 1


def test_worker_count_bit_identical(rng):
    ng = 16
    pos = rng.uniform(0, ng, (1000, 3))
    a1 = PMSolver(ng, workers=1).accelerations(pos, 1.0)
    for workers in (2, 4):
        np.testing.assert_array_equal(
            PMSolver(ng, workers=workers).accelerations(pos, 1.0), a1
        )


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
        hist = rec.histogram("pm_fft_seconds")
        assert hist.count >= 2
        assert rec.histogram("pm_deposit_seconds").count == 2
        assert rec.histogram("pm_gather_seconds").count == 2


def test_pm_timers_cover_the_force_evaluation():
    """No unattributed time: the three ``pm_*_seconds`` histograms account
    for ≥ 90 % of the wall of ``accelerations()`` (the operator build used
    to run before the first timer and was ~40 % of it)."""
    ng = 32
    pos = np.random.default_rng(5).uniform(0, ng, (ng**3, 3))
    solver = PMSolver(ng)
    body = PMSolver.accelerations.__wrapped__  # without the sanitizer's output walk
    body(solver, pos, 1.0)  # warm-up: buffers, FFT plans
    names = ("pm_deposit_seconds", "pm_fft_seconds", "pm_gather_seconds")
    best = 0.0
    for _ in range(5):
        with obs.telemetry() as rec:
            t0 = time.perf_counter()
            body(solver, pos, 1.0)
            wall = time.perf_counter() - t0
            best = max(best, sum(rec.histogram(name).sum for name in names) / wall)
    assert best >= 0.9
