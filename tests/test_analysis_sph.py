"""SPH kernel and local density estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from repro.analysis import cubic_spline_kernel, knn_neighbors, sph_density
from tests.oracles.sph_reference import knn_bruteforce, tophat_density


def test_kernel_positive_with_compact_support():
    h = 2.0
    r = np.linspace(0, 3, 100)
    w = cubic_spline_kernel(r, h)
    assert np.all(w[r < h] > 0)
    assert np.all(w[r >= h] == 0)


def test_kernel_monotone_decreasing():
    w = cubic_spline_kernel(np.linspace(0, 1.99, 50), 2.0)
    assert np.all(np.diff(w) <= 1e-12)


def test_kernel_normalized_in_3d():
    """∫ W(r) 4πr² dr = 1."""
    h = 1.7

    def integrand(r):
        return 4 * np.pi * r * r * cubic_spline_kernel(np.asarray([r]), h)[0]

    val, _ = integrate.quad(integrand, 0, h)
    assert val == pytest.approx(1.0, rel=1e-6)


def test_knn_excludes_self(rng):
    pos = rng.uniform(0, 5, (60, 3))
    idx, dist = knn_neighbors(pos, 4)
    assert idx.shape == (60, 4)
    for i in range(60):
        assert i not in idx[i]
        assert np.all(np.diff(dist[i]) >= -1e-12)


def test_knn_matches_brute_force(rng):
    pos = rng.uniform(0, 5, (80, 3))
    idx, dist = knn_neighbors(pos, 5)
    for i in range(0, 80, 13):
        d = np.sqrt(np.sum((pos - pos[i]) ** 2, axis=1))
        d[i] = np.inf
        expect = np.sort(d)[:5]
        assert np.allclose(np.sort(dist[i]), expect)


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        knn_neighbors(np.zeros((3, 3)), 3)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 90),
    k=st.integers(1, 12),
    layout=st.sampled_from(["uniform", "duplicates", "lattice"]),
)
def test_prop_knn_matches_bruteforce(seed, n, k, layout):
    """Distances exactly equal to the full distance matrix's; indices
    equal wherever the neighbor set is unique."""
    local = np.random.default_rng(seed)
    k = min(k, n - 1)
    if layout == "lattice":  # ties everywhere, coincident points too
        pos = local.integers(0, 3, (n, 3)).astype(float)
    else:
        pos = local.uniform(0, 5, (n, 3))
    if layout == "duplicates":  # more than k + 1 copies of one point
        copies = local.choice(n, size=min(n, k + 2 + local.integers(0, 3)), replace=False)
        pos[copies] = pos[copies[0]]
    idx, dist = knn_neighbors(pos, k)
    ref_idx, ref_dist = knn_bruteforce(pos, k)
    assert np.array_equal(dist, ref_dist[:, :k])
    unique = (
        ref_dist[:, k - 1] < ref_dist[:, k]
        if ref_dist.shape[1] > k
        else np.ones(n, dtype=bool)
    )
    assert np.array_equal(idx[unique], ref_idx[unique, :k])
    assert not np.any(idx == np.arange(n)[:, None])


def test_density_higher_in_cluster(rng):
    """Particles inside a tight blob must have higher density than
    isolated background particles."""
    blob = rng.normal(5.0, 0.2, (100, 3))
    background = rng.uniform(0, 10, (50, 3))
    pos = np.concatenate([blob, background])
    rho = sph_density(pos, k=16)
    assert np.median(rho[:100]) > 10 * np.median(rho[100:])


def test_density_matches_per_particle_kernel_sum(rng):
    """The vectorised kernel sum equals the per-row scalar-h form up to
    the last bit (array and scalar ``**`` may round differently)."""
    pos = rng.normal(0, 1, (300, 3))
    _, dist = knn_neighbors(pos, 16)
    ref = [
        cubic_spline_kernel(d, d[-1]).sum() + cubic_spline_kernel(np.zeros(1), d[-1])[0]
        for d in dist
    ]
    np.testing.assert_allclose(sph_density(pos, k=16), ref, rtol=1e-15, atol=0)


def test_density_ranking_consistent_between_estimators(rng):
    blob = rng.normal(5.0, 0.4, (80, 3))
    bg = rng.uniform(0, 10, (40, 3))
    pos = np.concatenate([blob, bg])
    a = sph_density(pos, k=12)
    b = tophat_density(pos, k=12)
    # rank correlation between the two estimators is strong
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    corr = np.corrcoef(ra, rb)[0, 1]
    assert corr > 0.9


def test_density_scales_with_mass(rng):
    pos = rng.uniform(0, 2, (50, 3))
    a = sph_density(pos, mass=1.0, k=8)
    b = sph_density(pos, mass=3.0, k=8)
    assert np.allclose(b, 3 * a)


def test_density_uniform_field_approximates_mean(rng):
    """For a uniform distribution the SPH estimate is near n/V."""
    n, box = 600, 10.0
    pos = rng.uniform(0, box, (n, 3))
    rho = sph_density(pos, k=32)
    expected = n / box**3
    # interior particles only (edges are underdense by construction)
    interior = np.all((pos > 2) & (pos < 8), axis=1)
    assert np.median(rho[interior]) == pytest.approx(expected, rel=0.5)


def test_tiny_group_degenerate_path():
    rho = sph_density(np.zeros((3, 3)), k=32)
    assert len(rho) == 3
    assert np.all(rho == 3.0)
