"""MBP center finding: the one pair kernel and the one brute-force center finder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    approximate_center_densest_cell,
    approximate_center_of_mass,
    center_finding_cost,
    halo_centers,
    mbp_center_bruteforce,
    potential_bruteforce,
)
from repro.analysis.subhalos import unbind_particles
from tests.oracles.centers_reference import (
    potential_broadcast,
    potential_reference,
    unbind_reference,
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 600),
    clustered=st.booleans(),
    softening=st.sampled_from([0.0, 1e-5, 1e-3]),
    block=st.sampled_from([1, 7, 2048]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_kernel_matches_broadcast_form_and_oracle(n, clustered, softening, block, seed):
    """The ``cdist`` kernel is the old broadcast form bit for bit (at any
    row block), close to the per-element loop, and leaves subhalo
    unbinding's mask unchanged."""
    rng = np.random.default_rng(seed)
    if clustered:
        pos = rng.normal(10.0, 0.5, (n, 3))
    else:
        pos = rng.uniform(0.0, 20.0, (n, 3))
    phi = potential_bruteforce(pos, softening=softening, block=block)
    assert np.array_equal(phi, potential_broadcast(pos, softening=softening))
    k = min(n, 60)  # the per-element loop is pure Python
    assert np.allclose(
        potential_bruteforce(pos[:k], softening=softening),
        potential_reference(pos[:k], softening=softening),
        rtol=1e-12,
        atol=1e-12,
    )
    vel = rng.normal(0.0, 0.3, (n, 3))
    g = 2.0 / n  # binds part of a clustered field, none of a uniform one
    assert np.array_equal(
        unbind_particles(pos, vel, 1.0, g, softening=softening),
        unbind_reference(pos, vel, 1.0, g, softening=softening),
    )


def test_potential_two_particles_symmetric():
    pos = np.asarray([[0.0, 0, 0], [1.0, 0, 0]])
    phi = potential_bruteforce(pos, mass=2.0, softening=0.0)
    assert phi[0] == pytest.approx(phi[1]) == pytest.approx(-2.0)


def test_potential_excludes_self_term():
    pos = np.asarray([[0.0, 0, 0], [10.0, 0, 0]])
    phi = potential_bruteforce(pos, softening=1e-5)
    # without self-exclusion phi would be ~ -1e5
    assert phi[0] == pytest.approx(-1.0 / 10.0, rel=1e-3)


def test_potential_blocked_matches_unblocked(plummer_halo):
    pos = plummer_halo[:500]
    a = potential_bruteforce(pos, block=64)
    b = potential_bruteforce(pos, block=100000)
    assert np.allclose(a, b)


def test_mbp_bruteforce_finds_deepest(plummer_halo):
    idx, phi, stats = mbp_center_bruteforce(plummer_halo)
    full = potential_bruteforce(plummer_halo)
    assert idx == int(np.argmin(full))
    assert phi == pytest.approx(full.min())
    assert stats.pair_evaluations == len(plummer_halo) * (len(plummer_halo) - 1)


def test_mbp_center_near_density_peak(plummer_halo):
    """The MBP of a Plummer sphere lies near the profile center (10,10,10)."""
    idx, _, _ = mbp_center_bruteforce(plummer_halo)
    assert np.linalg.norm(plummer_halo[idx] - 10.0) < 0.5


def test_mbp_singleton_and_empty():
    idx, phi, _ = mbp_center_bruteforce(np.zeros((1, 3)))
    assert idx == 0 and phi == 0.0
    with pytest.raises(ValueError):
        mbp_center_bruteforce(np.empty((0, 3)))


def test_approximate_centers_close_but_not_exact(plummer_halo):
    com = approximate_center_of_mass(plummer_halo)
    dc = approximate_center_densest_cell(plummer_halo)
    assert np.linalg.norm(com - 10.0) < 1.0
    assert np.linalg.norm(dc - 10.0) < 1.0


def test_halo_centers_batch(rng):
    """Two separated blobs with labels: one center per halo, correct tags."""
    blob_a = rng.normal(5.0, 0.3, (150, 3))
    blob_b = rng.normal(15.0, 0.3, (100, 3))
    pos = np.concatenate([blob_a, blob_b])
    tags = np.arange(250) + 1000
    labels = np.concatenate([np.full(150, 7), np.full(100, 9)])
    res = halo_centers(pos, tags, labels)
    assert np.array_equal(res.halo_tags, [7, 9])
    assert np.linalg.norm(res.centers[0] - 5.0) < 0.5
    assert np.linalg.norm(res.centers[1] - 15.0) < 0.5
    # mbp tag belongs to the right halo
    assert res.mbp_tags[0] < 1150 and res.mbp_tags[1] >= 1150
    assert res.stats.pair_evaluations == res.per_halo_pairs.sum()


def test_halo_centers_select_subset(rng):
    pos = rng.normal(5.0, 0.3, (120, 3))
    tags = np.arange(120)
    labels = np.concatenate([np.full(60, 1), np.full(60, 2)])
    res = halo_centers(pos, tags, labels, select_tags=np.asarray([2]))
    assert np.array_equal(res.halo_tags, [2])


def test_halo_centers_skips_fluff(rng):
    pos = rng.normal(0, 1, (50, 3))
    labels = np.full(50, -1)
    labels[:30] = 4
    res = halo_centers(pos, np.arange(50), labels)
    assert np.array_equal(res.halo_tags, [4])


def test_halo_centers_unknown_method(plummer_halo):
    """There is one center kernel, so no ``method=`` selects one."""
    for name in ("magic", "bruteforce"):
        with pytest.raises(TypeError, match="method"):
            halo_centers(plummer_halo, np.arange(len(plummer_halo)),
                         np.zeros(len(plummer_halo), dtype=int), method=name)


def test_center_finding_cost_quadratic():
    """The paper's scaling: 10M-particle halo costs ~10,000x a 100k halo."""
    c = center_finding_cost(np.asarray([100_000, 10_000_000]))
    assert c[1] / c[0] == pytest.approx(10_000, rel=0.01)


def test_softening_prevents_singularity():
    pos = np.zeros((2, 3))  # coincident particles
    phi = potential_bruteforce(pos, softening=1e-3)
    assert np.all(np.isfinite(phi))
    assert phi[0] == pytest.approx(-1000.0)
