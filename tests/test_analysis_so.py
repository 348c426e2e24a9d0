"""Spherical-overdensity mass estimation."""

import numpy as np
import pytest

from repro.analysis import so_mass
from tests.oracles.so_reference import so_masses


def _uniform_sphere(rng, n, radius, center):
    r = radius * rng.uniform(0, 1, n) ** (1.0 / 3.0)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return center + r[:, None] * u


def test_so_mass_analytic_uniform_sphere(rng):
    """Uniform sphere of density rho_s: R_delta satisfies
    rho_s = delta * rho_ref exactly at R_delta = R (rho_s/delta/rho_ref)^(1/3)
    ... for enclosed mean density profile of a uniform sphere (constant
    inside), the crossing is where the profile drops below threshold,
    i.e. at the sphere edge if rho_s > delta*rho_ref."""
    n, radius = 5000, 2.0
    center = np.asarray([10.0, 10.0, 10.0])
    pos = _uniform_sphere(rng, n, radius, center)
    rho_sphere = n / (4 / 3 * np.pi * radius**3)
    # choose reference so the sphere is 250x overdense
    rho_ref = rho_sphere / 250.0
    res = so_mass(pos, center, particle_mass=1.0, reference_density=rho_ref, delta=200.0)
    # threshold is crossed inside the sphere edge but near it
    assert res.radius == pytest.approx(radius * (250 / 200) ** (1 / 3) , rel=0.25)
    assert res.count == pytest.approx(n, rel=0.1)


def test_so_mass_grows_with_lower_delta(rng):
    pos = _uniform_sphere(rng, 2000, 1.0, np.zeros(3)) + np.random.default_rng(
        1
    ).normal(0, 2.0, (2000, 3)) * 0  # compact
    rho_ref = 1e-3
    hi = so_mass(pos, np.zeros(3), 1.0, rho_ref, delta=500.0)
    lo = so_mass(pos, np.zeros(3), 1.0, rho_ref, delta=100.0)
    assert lo.mass >= hi.mass
    assert lo.radius >= hi.radius


def test_so_mass_counts_match_radius(rng):
    pos = _uniform_sphere(rng, 800, 1.5, np.zeros(3))
    res = so_mass(pos, np.zeros(3), 1.0, 1e-2, delta=200.0)
    inside = np.sum(np.linalg.norm(pos, axis=1) <= res.radius + 1e-12)
    assert inside == res.count
    assert res.mass == pytest.approx(res.count * 1.0)


def test_so_mass_periodic_wrap():
    """A halo at the box corner must be measured via minimum image."""
    rng2 = np.random.default_rng(3)
    box = 10.0
    center = np.zeros(3)
    pos = np.mod(center + rng2.normal(0, 0.3, (500, 3)), box)
    res_wrapped = so_mass(pos, center, 1.0, 1e-3, delta=200.0, box=box)
    res_naive = so_mass(pos, center, 1.0, 1e-3, delta=200.0, box=None)
    assert res_wrapped.count > res_naive.count


def test_so_mass_empty():
    res = so_mass(np.empty((0, 3)), np.zeros(3), 1.0, 1.0)
    assert res.count == 0 and res.mass == 0.0 and not res.converged


def test_so_mass_underdense_not_converged(rng):
    pos = rng.uniform(0, 10, (100, 3))
    res = so_mass(pos, np.asarray([5.0, 5, 5]), 1.0, reference_density=10.0, delta=200.0)
    assert not res.converged or res.count <= 2


def test_search_radius_cap(rng):
    pos = _uniform_sphere(rng, 1000, 3.0, np.zeros(3))
    res = so_mass(pos, np.zeros(3), 1.0, 1e-4, delta=200.0, search_radius=1.0)
    assert res.radius <= 1.0


def test_so_masses_batch(rng):
    a = _uniform_sphere(rng, 500, 1.0, np.asarray([5.0, 5, 5]))
    b = _uniform_sphere(rng, 300, 1.0, np.asarray([15.0, 15, 15]))
    pos = np.concatenate([a, b])
    results = so_masses(
        pos, np.asarray([[5.0, 5, 5], [15.0, 15, 15]]), 1.0, 1e-2, delta=200.0
    )
    assert len(results) == 2
    assert results[0].count > results[1].count
