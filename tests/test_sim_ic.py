"""Initial conditions: Gaussian field statistics and Zel'dovich kinematics."""

import numpy as np
import pytest

from repro.sim import (
    ICConfig,
    LinearPower,
    QCONTINUUM_COSMOLOGY,
    gaussian_field,
    make_initial_conditions,
    za_displacements,
)
from tests.oracles.pm_reference import cic_deposit


@pytest.fixture(scope="module")
def power():
    return LinearPower(QCONTINUUM_COSMOLOGY)


def test_gaussian_field_zero_mean(power):
    f = gaussian_field(32, 64.0, power, seed=1)
    assert abs(f.mean()) < 1e-10


def test_gaussian_field_reproducible(power):
    a = gaussian_field(16, 64.0, power, seed=5)
    b = gaussian_field(16, 64.0, power, seed=5)
    assert np.array_equal(a, b)
    c = gaussian_field(16, 64.0, power, seed=6)
    assert not np.array_equal(a, c)


def test_gaussian_field_amplitude_scales_linearly(power):
    a = gaussian_field(16, 64.0, power, seed=5, amplitude=1.0)
    b = gaussian_field(16, 64.0, power, seed=5, amplitude=0.5)
    assert np.allclose(b, 0.5 * a)


def test_gaussian_field_variance_matches_pk(power):
    """The measured spectrum of the generated field must match P(k) at a
    well-sampled intermediate scale."""
    ng, box = 64, 200.0
    f = gaussian_field(ng, box, power, seed=3)
    fk = np.fft.rfftn(f)
    kf = 2 * np.pi / box
    kx = kf * np.fft.fftfreq(ng, d=1.0 / ng)
    kz = kf * np.fft.rfftfreq(ng, d=1.0 / ng)
    kmag = np.sqrt(kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2)
    pk3d = np.abs(fk) ** 2 * box**3 / ng**6
    sel = (kmag > 0.15) & (kmag < 0.35)
    measured = pk3d[sel].mean()
    expected = power(kmag[sel]).mean()
    assert measured == pytest.approx(expected, rel=0.25)  # cosmic variance


def test_za_displacements_divergence_recovers_delta(power):
    """δ = -∇·ψ by construction (checked spectrally on a smooth field)."""
    ng, box = 32, 100.0
    delta = gaussian_field(ng, box, power, seed=2)
    psi = za_displacements(delta, box)
    # spectral divergence
    kf = 2 * np.pi / box
    kx = kf * np.fft.fftfreq(ng, d=1.0 / ng)
    kz = kf * np.fft.rfftfreq(ng, d=1.0 / ng)
    div = np.zeros((ng, ng, ng))
    for axis, k in enumerate(
        (kx[:, None, None], kx[None, :, None], kz[None, None, :])
    ):
        div += np.fft.irfftn(
            1j * k * np.fft.rfftn(psi[axis]), s=(ng, ng, ng), axes=(0, 1, 2)
        )
    # exact up to the Nyquist modes, whose spectral derivative is
    # ill-defined for real fields; demand near-perfect correlation and a
    # small rms residual instead of exact equality
    assert np.corrcoef(-div.ravel(), delta.ravel())[0, 1] > 0.995
    assert np.sqrt(np.mean((-div - delta) ** 2)) < 0.15 * delta.std()


def test_ic_particle_count_and_tags():
    cfg = ICConfig(np_per_dim=8, box=32.0, z_initial=50.0)
    p = make_initial_conditions(cfg, QCONTINUUM_COSMOLOGY)
    assert len(p) == 512
    assert np.array_equal(np.sort(p.tag), np.arange(512))


def test_ic_positions_in_box():
    cfg = ICConfig(np_per_dim=8, box=32.0)
    p = make_initial_conditions(cfg, QCONTINUUM_COSMOLOGY)
    assert np.all(p.pos >= 0) and np.all(p.pos < 32.0)


def test_ic_displacements_small_at_high_z():
    """At z=50 the Zel'dovich displacements are a small fraction of the
    interparticle spacing."""
    cfg = ICConfig(np_per_dim=16, box=64.0, z_initial=50.0)
    p = make_initial_conditions(cfg, QCONTINUUM_COSMOLOGY)
    cell = 64.0 / 16
    lattice = (np.arange(16) + 0.5) * cell
    qx, qy, qz = np.meshgrid(lattice, lattice, lattice, indexing="ij")
    q = np.column_stack([qx.ravel(), qy.ravel(), qz.ravel()])
    d = p.pos - q
    d -= 64.0 * np.round(d / 64.0)
    rms = np.sqrt(np.mean(np.sum(d * d, axis=1)))
    assert rms < 0.5 * cell


def test_ic_velocity_parallel_to_displacement():
    """ZA: momentum is proportional to displacement (same growing mode)."""
    cfg = ICConfig(np_per_dim=8, box=32.0, z_initial=50.0)
    p = make_initial_conditions(cfg, QCONTINUUM_COSMOLOGY)
    cell = 32.0 / 8
    lattice = (np.arange(8) + 0.5) * cell
    qx, qy, qz = np.meshgrid(lattice, lattice, lattice, indexing="ij")
    q = np.column_stack([qx.ravel(), qy.ravel(), qz.ravel()])
    disp = p.pos - q
    disp -= 32.0 * np.round(disp / 32.0)
    ratio = p.vel / np.where(np.abs(disp) > 1e-9, disp, np.nan)
    finite = np.isfinite(ratio)
    assert np.nanstd(ratio[finite]) / abs(np.nanmean(ratio[finite])) < 1e-6


def test_ic_invalid_config():
    with pytest.raises(ValueError):
        ICConfig(np_per_dim=1, box=10.0)
    with pytest.raises(ValueError):
        ICConfig(np_per_dim=8, box=-5.0)
    with pytest.raises(ValueError):
        ICConfig(np_per_dim=8, box=10.0, z_initial=0.0)


def test_ic_grown_field_matches_growth_factor(power):
    """Depositing the IC particles recovers delta at the IC redshift."""
    cfg = ICConfig(np_per_dim=32, box=128.0, z_initial=50.0, seed=9)
    p = make_initial_conditions(cfg, QCONTINUUM_COSMOLOGY)
    delta = cic_deposit(p.pos / (128.0 / 32), 32)
    d_init = QCONTINUUM_COSMOLOGY.growth_factor(1.0 / 51.0)
    # linear field std at the cell scale, scaled by growth
    expected = gaussian_field(32, 128.0, power, seed=9, amplitude=d_init).std()
    # CIC smoothing lowers the measured std somewhat
    assert delta.std() == pytest.approx(expected, rel=0.35)
