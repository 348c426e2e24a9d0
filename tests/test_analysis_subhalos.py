"""Subhalo finder: candidate growth, unbinding, load scaling."""

import numpy as np

from repro.analysis import find_subhalos, unbind_particles


def _two_component_halo(rng, n_main=400, n_sub=150, sep=4.0):
    """Parent halo with a dominant body and an infalling subclump, both
    with cold (bound) internal velocities."""
    main_pos = rng.normal(0.0, 1.0, (n_main, 3))
    sub_pos = rng.normal([sep, 0, 0], 0.3, (n_sub, 3))
    # velocity dispersions well below binding
    main_vel = rng.normal(0, 0.05, (n_main, 3))
    sub_vel = rng.normal([0.3, 0, 0], 0.05, (n_sub, 3))
    pos = np.concatenate([main_pos, sub_pos])
    vel = np.concatenate([main_vel, sub_vel])
    return pos, vel, n_main, n_sub


def test_two_components_found(rng):
    pos, vel, n_main, n_sub = _two_component_halo(rng)
    res = find_subhalos(pos, vel, g_constant=10.0, min_size=30, k_density=16)
    assert res.n_subhalos >= 2
    # subhalo 0 is the most massive (the main body)
    assert res.subhalo_sizes[0] > res.subhalo_sizes[1]
    # the subclump's particles predominantly share one label
    sub_labels = res.labels[n_main:]
    values, counts = np.unique(sub_labels[sub_labels >= 0], return_counts=True)
    dominant = values[np.argmax(counts)]
    assert counts.max() > 0.6 * n_sub
    # and that label is mostly composed of subclump particles
    members = np.flatnonzero(res.labels == dominant)
    assert (members >= n_main).mean() > 0.8


def test_single_smooth_halo_one_subhalo(rng):
    pos = rng.normal(0, 1.0, (500, 3))
    vel = rng.normal(0, 0.05, (500, 3))
    res = find_subhalos(pos, vel, g_constant=10.0, min_size=30, k_density=16)
    assert res.n_subhalos >= 1
    # dominant structure holds the overwhelming majority
    assert res.subhalo_sizes[0] > 0.7 * 500


def test_tiny_halo_returns_empty():
    res = find_subhalos(np.zeros((10, 3)), np.zeros((10, 3)), min_size=20)
    assert res.n_subhalos == 0
    assert np.all(res.labels == -1)


def test_labels_partition(rng):
    pos, vel, *_ = _two_component_halo(rng)
    res = find_subhalos(pos, vel, g_constant=10.0, min_size=30, k_density=16)
    for sid, size in enumerate(res.subhalo_sizes):
        assert (res.labels == sid).sum() == size


def test_no_unbind_keeps_more_particles(rng):
    pos, vel, *_ = _two_component_halo(rng)
    with_unbind = find_subhalos(pos, vel, g_constant=10.0, min_size=30, unbind=True)
    without = find_subhalos(pos, vel, g_constant=10.0, min_size=30, unbind=False)
    assert without.subhalo_sizes.sum() >= with_unbind.subhalo_sizes.sum()


# --- unbinding ---------------------------------------------------------------


def test_unbind_keeps_cold_bound_system(rng):
    pos = rng.normal(0, 1.0, (200, 3))
    vel = rng.normal(0, 0.01, (200, 3))  # very cold
    bound = unbind_particles(pos, vel, mass=1.0, g_constant=10.0, min_size=20)
    assert bound.sum() > 190


def test_unbind_dissolves_hot_system(rng):
    pos = rng.normal(0, 1.0, (200, 3))
    vel = rng.normal(0, 100.0, (200, 3))  # enormous kinetic energy
    bound = unbind_particles(pos, vel, mass=1.0, g_constant=1e-6, min_size=20)
    assert bound.sum() == 0


def test_unbind_removes_fast_interlopers(rng):
    pos = rng.normal(0, 1.0, (300, 3))
    vel = rng.normal(0, 0.01, (300, 3))
    vel[:15] = 1e3  # 15 interlopers moving absurdly fast
    bound = unbind_particles(pos, vel, mass=1.0, g_constant=10.0, min_size=20)
    assert not bound[:15].any()
    assert bound[15:].sum() > 270


def test_unbind_quarter_rule_is_gradual(rng):
    """With many marginally unbound particles the multi-pass rule removes
    at most a quarter of the positive-energy set per pass, so the bound
    remnant is larger than a single greedy cut would leave."""
    pos = rng.normal(0, 1.0, (200, 3))
    # tune velocities so roughly half the particles start unbound
    vel = rng.normal(0, 0.9, (200, 3))
    g = 0.5
    bound_gradual = unbind_particles(
        pos, vel, mass=1.0, g_constant=g, max_remove_fraction=0.25, min_size=10
    )
    bound_greedy = unbind_particles(
        pos, vel, mass=1.0, g_constant=g, max_remove_fraction=1.0, min_size=10
    )
    assert bound_gradual.sum() >= bound_greedy.sum()


def test_unbind_min_size_dissolution(rng):
    pos = rng.normal(0, 1, (25, 3))
    vel = rng.normal(0, 50.0, (25, 3))
    bound = unbind_particles(pos, vel, mass=1.0, g_constant=1e-6, min_size=20)
    assert bound.sum() == 0  # dropped below min_size -> dissolved


def test_subhalo_cost_grows_superlinearly(rng):
    """The imbalance driver: doubling the parent size should more than
    double the work (measured in wall time on this serial code).  Each
    size keeps the fastest of three runs, so one scheduler hiccup on the
    ~10 ms small case cannot flip the ratio."""
    import time

    times = []
    for n in (400, 1600):
        pos = rng.normal(0, 1, (n, 3))
        vel = rng.normal(0, 0.05, (n, 3))
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            find_subhalos(pos, vel, g_constant=10.0, min_size=30, k_density=16)
            runs.append(time.perf_counter() - t0)
        times.append(min(runs))
    assert times[1] > 2.0 * times[0]
