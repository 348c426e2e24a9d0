"""Simulation driver: stepping, hooks, growth, particle container."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    BYTES_PER_PARTICLE,
    HACCSimulation,
    Particles,
    QCONTINUUM_COSMOLOGY,
    SimulationConfig,
)
from repro.sim.particles import wrap_periodic
from tests.oracles.pm_reference import cic_deposit


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n_steps=0)
    with pytest.raises(ValueError):
        SimulationConfig(z_initial=10.0, z_final=20.0)


def test_config_mesh_defaults_to_particles():
    assert SimulationConfig(np_per_dim=16).mesh_size == 16
    assert SimulationConfig(np_per_dim=16, ng=32).mesh_size == 32


def test_run_reaches_final_redshift():
    sim = HACCSimulation(SimulationConfig(np_per_dim=8, box=32.0, n_steps=5))
    sim.run()
    assert sim.z == pytest.approx(0.0, abs=1e-10)
    assert sim.step == 5
    assert len(sim.records) == 5


def test_particles_stay_in_box(mini_sim):
    assert np.all(mini_sim.particles.pos >= 0)
    assert np.all(mini_sim.particles.pos < mini_sim.config.box)


def test_structure_grows(mini_sim):
    """Final density contrast must exceed linear growth from the ICs —
    gravity is attractive and nonlinear collapse amplifies."""
    cfg = mini_sim.config
    sim0 = HACCSimulation(cfg)  # fresh ICs, same seed
    cell = cfg.box / cfg.np_per_dim
    s0 = cic_deposit(sim0.particles.pos / cell, cfg.np_per_dim).std()
    s1 = cic_deposit(mini_sim.particles.pos / cell, cfg.np_per_dim).std()
    d_ratio = QCONTINUUM_COSMOLOGY.growth_factor(1.0) / QCONTINUUM_COSMOLOGY.growth_factor(
        1.0 / 31.0
    )
    assert s1 / s0 > d_ratio  # super-linear growth


def test_growth_rate_matches_linear_theory_weak_field():
    """Evolving only to z=5 (weakly nonlinear), the measured growth of
    the density field must track D(a) within ~25%."""
    cfg = SimulationConfig(np_per_dim=16, box=100.0, z_initial=30.0, z_final=5.0, n_steps=16)
    sim = HACCSimulation(cfg)
    cell = cfg.box / 16
    s0 = cic_deposit(sim.particles.pos / cell, 16).std()
    sim.run()
    s1 = cic_deposit(sim.particles.pos / cell, 16).std()
    cos = QCONTINUUM_COSMOLOGY
    expected = cos.growth_factor(1.0 / 6.0) / cos.growth_factor(1.0 / 31.0)
    assert s1 / s0 == pytest.approx(expected, rel=0.25)


def test_analysis_hook_called_each_step():
    calls = []

    class Spy:
        def execute(self, sim, step, a):
            calls.append((step, a))

    sim = HACCSimulation(
        SimulationConfig(np_per_dim=8, box=32.0, n_steps=4), analysis_manager=Spy()
    )
    sim.run()
    assert [s for s, _ in calls] == [1, 2, 3, 4]
    assert calls[-1][1] == pytest.approx(1.0)


def test_call_at_start_invokes_step_zero():
    calls = []

    class Spy:
        def execute(self, sim, step, a):
            calls.append(step)

    sim = HACCSimulation(
        SimulationConfig(np_per_dim=8, box=32.0, n_steps=2),
        analysis_manager=Spy(),
        call_at_start=True,
    )
    sim.run()
    assert calls == [0, 1, 2]


def test_snapshot_is_deep_copy(mini_sim):
    snap = mini_sim.snapshot()
    snap.pos[:] = 0
    assert not np.allclose(mini_sim.particles.pos, 0)


def test_mesh_independence_of_state():
    """Same ICs evolved with ng=np vs ng=2np must agree on large scales."""
    a = HACCSimulation(SimulationConfig(np_per_dim=16, box=64.0, n_steps=10, z_final=2.0))
    b = HACCSimulation(
        SimulationConfig(np_per_dim=16, box=64.0, n_steps=10, z_final=2.0, ng=32)
    )
    a.run()
    b.run()
    da = cic_deposit(a.particles.pos / 8.0, 8)
    db = cic_deposit(b.particles.pos / 8.0, 8)
    # coarse (8^3) density fields agree well (the finer mesh adds genuine
    # small-scale force resolution, so correlation is high but not 1)
    assert np.corrcoef(da.ravel(), db.ravel())[0, 1] > 0.9


# --- Particles container -----------------------------------------------------


def test_particles_level1_bytes():
    p = Particles(
        pos=np.zeros((10, 3)), vel=np.zeros((10, 3)), tag=np.arange(10), box=1.0
    )
    assert p.level1_bytes == 10 * BYTES_PER_PARTICLE == 360


def test_particles_shape_validation():
    with pytest.raises(ValueError):
        Particles(pos=np.zeros((5, 2)), vel=np.zeros((5, 3)), tag=np.arange(5))
    with pytest.raises(ValueError):
        Particles(pos=np.zeros((5, 3)), vel=np.zeros((5, 3)), tag=np.arange(4))


def test_particles_select_and_concatenate():
    p = Particles(
        pos=np.arange(30, dtype=float).reshape(10, 3),
        vel=np.zeros((10, 3)),
        tag=np.arange(10),
        box=100.0,
    )
    a = p.select(np.asarray([0, 1]))
    b = p.select(np.asarray([5]))
    c = Particles.concatenate([a, b])
    assert len(c) == 3
    assert np.array_equal(c.tag, [0, 1, 5])
    assert c.box == 100.0


def test_particles_arrays_roundtrip():
    p = Particles(
        pos=np.random.default_rng(0).uniform(0, 9, (6, 3)),
        vel=np.zeros((6, 3)),
        tag=np.arange(6),
        box=9.0,
        extra={"phi": np.arange(6, dtype=float)},
    )
    q = Particles.from_arrays(p.to_arrays(), box=9.0)
    assert np.array_equal(q.pos, p.pos)
    assert np.array_equal(q.extra["phi"], p.extra["phi"])


def test_particles_wrap():
    p = Particles(
        pos=np.asarray([[10.5, -0.5, 3.0]]), vel=np.zeros((1, 3)), tag=[0], box=10.0
    )
    p.wrap()
    assert np.allclose(p.pos, [[0.5, 9.5, 3.0]])


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    box=st.sampled_from([1.0, 10.0, 36.0, 200.0, 0.3]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_wrap_periodic_equals_np_mod(seed, box, dtype):
    """The floor-based wrap ≡ ``np.mod`` — bit for bit within one box
    length of the box, to the rounding of ``k·box`` beyond — in place,
    same dtype, same closed ``[0, box]`` range."""
    rng = np.random.default_rng(seed)
    near = rng.uniform(-box, 2 * box, (200, 3)).astype(dtype)
    near[:4, 0] = [-1e-20, box, 0.0, -box]
    near[:3, 1] = [np.nextafter(dtype(box), dtype(0)), -0.0, 2 * box - box / 4]
    far = (rng.uniform(-50, 50, 100) * box).astype(dtype)
    far[0] = 3.5 * box
    for x, ulps in ((near, 0), (far, 64)):
        want = np.mod(x, dtype(box))
        buf = x.copy()
        wrap_periodic(buf, box)
        assert buf.dtype == dtype
        np.testing.assert_allclose(buf, want, rtol=0, atol=ulps * np.finfo(dtype).eps * box)
        assert want.min() >= 0 and want.max() <= box  # np.mod's own contract: closed
    assert near.min() < 0 and near.max() > box  # the inputs did need wrapping


def test_wrap_is_in_place():
    pos = np.asarray([[10.5, -0.5, 3.0], [-1e-20, 10.0, 35.0]])
    p = Particles(pos=pos, vel=np.zeros((2, 3)), tag=[0, 1], box=10.0)
    assert p.pos is pos
    p.wrap()
    assert p.pos is pos
    np.testing.assert_array_equal(pos, [[0.5, 9.5, 3.0], [10.0, 0.0, 5.0]])
