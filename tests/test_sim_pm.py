"""Particle-mesh kernels: the oracle chain's CIC/Poisson/gradient, and PM forces."""

import numpy as np
import pytest

from repro.sim.pmsolver import PMSolver
from tests.oracles.pm_reference import (
    cic_deposit,
    cic_interpolate,
    gradient_spectral,
    solve_poisson,
)


def test_cic_deposit_conserves_mass():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 16, (500, 3))
    delta = cic_deposit(pos, 16)
    # overdensity has zero mean by construction (mass conservation)
    assert abs(delta.mean()) < 1e-12


def test_cic_deposit_particle_at_cell_center():
    # particle exactly at the center of cell (2,3,4): all weight in one cell
    delta = cic_deposit(np.asarray([[2.0, 3.0, 4.0]]), 8)
    rho = (delta + 1.0)  # mean-normalized density
    assert rho[2, 3, 4] == pytest.approx(rho.max())
    assert rho[2, 3, 4] == pytest.approx(512.0)  # all mass in 1 of 512 cells


def test_cic_deposit_splits_weight_between_cells():
    # particle halfway between cell centers along x
    delta = cic_deposit(np.asarray([[2.5, 3.0, 4.0]]), 8)
    rho = delta + 1.0
    assert rho[2, 3, 4] == pytest.approx(rho[3, 3, 4])


def test_cic_deposit_periodic_wrap():
    # particle at the box edge deposits into cells on both sides
    delta = cic_deposit(np.asarray([[7.9, 0.0, 0.0]]), 8)
    rho = delta + 1.0
    assert rho[7, 0, 0] > 1.0 and rho[0, 0, 0] > 1.0


def test_cic_interpolate_inverse_of_deposit_smooth_field():
    # interpolation of a smooth (linear-free) periodic field is exact at
    # deposit points up to CIC smoothing; test constancy
    field = np.full((8, 8, 8), 3.5)
    pos = np.random.default_rng(1).uniform(0, 8, (100, 3))
    vals = cic_interpolate(field, pos)
    assert np.allclose(vals, 3.5)


def test_cic_interpolate_vector_field():
    field = np.stack([np.full((8, 8, 8), float(i)) for i in range(3)])
    vals = cic_interpolate(field, np.asarray([[4.0, 4.0, 4.0]]))
    assert vals.shape == (1, 3)
    assert np.allclose(vals[0], [0.0, 1.0, 2.0])


def test_poisson_single_mode_eigenvalue():
    """For delta = sin(2 pi x / ng), ∇²φ = delta gives φ = -delta/k²."""
    ng = 32
    x = np.arange(ng)
    delta = np.sin(2 * np.pi * x / ng)[:, None, None] * np.ones((1, ng, ng))
    phi = solve_poisson(delta, factor=1.0)
    k = 2 * np.pi / ng
    assert np.allclose(phi, -delta / k**2, atol=1e-10)


def test_poisson_factor_linear():
    rng = np.random.default_rng(2)
    delta = rng.normal(size=(8, 8, 8))
    delta -= delta.mean()
    assert np.allclose(solve_poisson(delta, 2.0), 2.0 * solve_poisson(delta, 1.0))


def test_poisson_zero_mode_removed():
    delta = np.ones((8, 8, 8))  # pure k=0
    phi = solve_poisson(delta)
    assert np.allclose(phi, 0.0)


def test_gradient_spectral_of_sine():
    ng = 32
    x = np.arange(ng)
    field = np.sin(2 * np.pi * x / ng)[:, None, None] * np.ones((1, ng, ng))
    grad = gradient_spectral(field)
    k = 2 * np.pi / ng
    expected = k * np.cos(2 * np.pi * x / ng)[:, None, None]
    assert np.allclose(grad[0], expected * np.ones((1, ng, ng)), atol=1e-10)
    assert np.allclose(grad[1], 0.0, atol=1e-12)
    assert np.allclose(grad[2], 0.0, atol=1e-12)


def test_pm_accelerations_point_toward_overdensity():
    """A single massive clump attracts a distant test particle."""
    ng = 32
    rng = np.random.default_rng(3)
    clump = rng.normal([16, 16, 16], 0.5, (200, 3))
    test_particle = np.asarray([[24.0, 16.0, 16.0]])
    pos = np.concatenate([clump, test_particle])
    acc = PMSolver(ng).accelerations(pos, 1.0)
    # test particle accelerates in -x (toward the clump)
    assert acc[-1, 0] < 0
    assert abs(acc[-1, 1]) < abs(acc[-1, 0])
    assert abs(acc[-1, 2]) < abs(acc[-1, 0])


def test_pm_accelerations_sum_to_zero():
    """Momentum conservation: net force over all particles ~ 0."""
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 16, (300, 3))
    acc = PMSolver(16).accelerations(pos, 1.0)
    net = acc.mean(axis=0)
    scale = np.abs(acc).max()
    assert np.all(np.abs(net) < 0.05 * scale)
