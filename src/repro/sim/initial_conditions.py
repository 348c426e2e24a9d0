"""Zel'dovich-approximation initial conditions for the mini-HACC run.

Generates a σ8-normalized Gaussian random density field on the particle
grid, converts it to a displacement field (first-order Lagrangian
perturbation theory, the Zel'dovich approximation), and displaces a
uniform particle lattice.  Velocities (code momenta) follow from the
linear growth rate, consistent with the PM integrator's equations of
motion in :mod:`repro.sim.hacc`.

Seed-flow contract (enforced by ``repro.check`` rule RPR001)
-----------------------------------------------------------
The only random draw in the IC pipeline is the white-noise field in
:func:`gaussian_field`, and its ``seed`` is threaded explicitly from
:class:`ICConfig.seed` through :func:`make_initial_conditions` — never
from hidden global RNG state.  Identical ``ICConfig`` values therefore
produce bit-identical particle loads, which is what lets every
downstream analysis (FOF -> centers -> SO -> subhalos, serial or
work-stealing parallel) be regression-compared at the bit level.
Phase-preserving refinement is part of the same contract: the
white-noise convolution keeps mode phases fixed when the power spectrum
changes, so seeds stay comparable across cosmology tweaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cosmology import Cosmology, a_of_z
from .particles import Particles, wrap_periodic
from .power import LinearPower

__all__ = ["ICConfig", "gaussian_field", "za_displacements", "make_initial_conditions"]


@dataclass(frozen=True)
class ICConfig:
    """Initial-condition parameters.

    ``np_per_dim`` particles per dimension on a lattice in a periodic box
    of ``box`` Mpc/h, displaced according to the linear power spectrum at
    redshift ``z_initial``.
    """

    np_per_dim: int
    box: float
    z_initial: float = 50.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.np_per_dim < 2:
            raise ValueError("np_per_dim must be >= 2")
        if self.box <= 0:
            raise ValueError("box must be positive")
        if self.z_initial <= 0:
            raise ValueError("z_initial must be positive")


def gaussian_field(
    ng: int, box: float, power: LinearPower, seed: int, amplitude: float = 1.0
) -> np.ndarray:
    """Gaussian random overdensity field with spectrum ``amplitude² P(k)``.

    Uses the white-noise-convolution recipe: draw unit white noise on the
    mesh, FFT, and scale each mode by ``sqrt(N P(k) / V)`` so that the
    ensemble power of the discrete field matches the continuum ``P(k)``.
    This construction is exactly Hermitian (real output) and has the
    useful property that refining ``P(k)`` preserves the phases.
    """
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((ng, ng, ng))
    wk = np.fft.rfftn(white)

    kf = 2.0 * np.pi / box  # fundamental mode, h/Mpc
    kx = kf * np.fft.fftfreq(ng, d=1.0 / ng)
    kz = kf * np.fft.rfftfreq(ng, d=1.0 / ng)
    kmag = np.sqrt(
        kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
    )

    n_total = ng**3
    volume = box**3
    pk = power(kmag.ravel()).reshape(kmag.shape)
    scale = amplitude * np.sqrt(n_total * pk / volume)
    scale.flat[0] = 0.0  # zero mean
    dk = wk * scale
    return np.fft.irfftn(dk, s=(ng, ng, ng), axes=(0, 1, 2))


def za_displacements(delta: np.ndarray, box: float) -> np.ndarray:
    """Zel'dovich displacement field ψ from an overdensity field.

    Solves ``δ = -∇·ψ`` spectrally: ``ψ_k = i k δ_k / k²``.  Returns an
    array of shape ``(3, ng, ng, ng)`` in the same length units as ``box``.

    Runs on the shared :class:`~repro.sim.pmsolver.PMSolver` — the same
    fused ``i k / k²`` spectral engine as the force evaluation, with its
    cached k-grids and threaded transforms.  Physical wavenumbers are
    the grid wavenumbers over the cell size, so
    ``ψ = cell · IFFT(i k_g δ_k / k_g²)``.
    """
    from .pmsolver import get_solver

    ng = delta.shape[0]
    cell = box / ng
    return cell * get_solver(ng).inverse_gradient(delta)


def make_initial_conditions(
    config: ICConfig, cosmo: Cosmology, power: LinearPower | None = None
) -> Particles:
    """Build the displaced-lattice particle set at ``z_initial``.

    Returned positions are in box units (Mpc/h); velocities hold the PM
    code momenta ``p = a² E(a) f D ψ`` in box-length units (independent of
    the force-mesh resolution — see :class:`repro.sim.hacc.HACCSimulation`
    for the matching equations of motion).  Particle mass is set so total
    mass equals ``np³`` lattice masses of 1 (analysis only needs relative
    masses).
    """
    if power is None:
        power = LinearPower(cosmo)
    n = config.np_per_dim
    box = config.box
    a_init = float(a_of_z(config.z_initial))
    growth = float(cosmo.growth_factor(a_init))

    delta = gaussian_field(n, box, power, config.seed, amplitude=growth)
    psi = za_displacements(delta, box)  # already scaled: delta carries D(a)

    cell = box / n
    lattice = (np.arange(n) + 0.5) * cell
    qx, qy, qz = np.meshgrid(lattice, lattice, lattice, indexing="ij")

    pos = np.empty((n**3, 3))
    pos[:, 0] = (qx + psi[0]).ravel()
    pos[:, 1] = (qy + psi[1]).ravel()
    pos[:, 2] = (qz + psi[2]).ravel()
    wrap_periodic(pos, box)

    # Code momenta in box-length units: p = a^2 E(a) f(a) * psi.
    f_growth = float(cosmo.growth_rate(a_init))
    e_a = float(cosmo.efunc(a_init))
    mom_factor = a_init**2 * e_a * f_growth
    vel = np.empty_like(pos)
    for axis in range(3):
        vel[:, axis] = mom_factor * psi[axis].ravel()

    tags = np.arange(n**3, dtype=np.uint64)
    return Particles(pos=pos, vel=vel, tag=tags, box=box, particle_mass=1.0)
