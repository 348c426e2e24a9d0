"""The mini-HACC simulation driver with CosmoTools in-situ hooks.

Evolves the Zel'dovich-seeded particle set from ``z_initial`` to
``z_final`` with a kick-drift-kick particle-mesh integrator, invoking the
registered in-situ analysis manager at every step exactly as HACC invokes
CosmoTools inside its main physics loop (paper §3.1: "a simple interface
that can be invoked within the main physics loop").

Equations of motion (Kravtsov PM formulation, positions ``x`` and
momenta ``p = a² dx/d(H0 t)`` in box-length units, time variable the
scale factor)::

    dx/da = f(a) p / a²          f(a) = 1 / (a E(a))
    dp/da = -f(a) ∇φ             ∇²φ = (3 Ω_m / 2a) δ

The Poisson solve runs on the force mesh in grid-cell units; the PM
solver takes box-unit positions and returns box-unit accelerations (one
factor of the cell size each way, applied inside its particle passes),
so particle state is independent of the mesh resolution ``ng``.

Timing is spans (``sim.run`` → ``sim.step`` → ``sim.force`` /
``sim.integrate``, with the in-situ hook's ``insitu.*`` spans nested in
the step); :class:`StepRecord` keeps one wall-clock number per step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs import get_recorder
from .cosmology import Cosmology, QCONTINUUM_COSMOLOGY, a_of_z, z_of_a
from .initial_conditions import ICConfig, make_initial_conditions
from .particles import Particles, wrap_periodic
from .pmsolver import get_solver

__all__ = ["SimulationConfig", "StepRecord", "HACCSimulation"]

@dataclass(frozen=True)
class SimulationConfig:
    """Mini-HACC run parameters (the "input deck" basics).

    ``ng`` defaults to the particle grid size (HACC typically matches
    particle count and grid size — paper §3: "typically, the particle
    number and grid size are the same").
    """

    np_per_dim: int = 32
    box: float = 64.0
    z_initial: float = 50.0
    z_final: float = 0.0
    n_steps: int = 60
    ng: int | None = None
    seed: int = 12345
    #: PM threads: the FFTs and the particle passes (None = auto;
    #: bit-identical results for any value).
    fft_workers: int | None = None

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.z_final >= self.z_initial:
            raise ValueError("z_final must be < z_initial")

    @property
    def mesh_size(self) -> int:
        return self.ng if self.ng is not None else self.np_per_dim

    @property
    def n_particles(self) -> int:
        return self.np_per_dim**3


@dataclass
class StepRecord:
    """One simulation step: its scale factor and its solver wall time.

    ``force_seconds`` covers the step's kicks, drift and force
    evaluation — everything but the in-situ hook.  Where the hook's
    time went is in the ``insitu.*`` spans.
    """

    step: int
    a: float
    z: float
    force_seconds: float = 0.0


class HACCSimulation:
    """Mini-HACC: PM N-body evolution with in-situ analysis hooks.

    Parameters
    ----------
    config:
        Run parameters.
    cosmo:
        Background cosmology (defaults to the Q Continuum cosmology).
    analysis_manager:
        Optional object with an ``execute(sim, step, a)`` method — the
        CosmoTools :class:`~repro.insitu.manager.InSituAnalysisManager`.
        Invoked after every completed step (and once for the initial
        state at step 0 if ``call_at_start``).
    """

    def __init__(
        self,
        config: SimulationConfig,
        cosmo: Cosmology = QCONTINUUM_COSMOLOGY,
        analysis_manager=None,
        call_at_start: bool = False,
    ):
        self.config = config
        self.cosmo = cosmo
        self.analysis_manager = analysis_manager
        self.call_at_start = call_at_start

        self.particles: Particles = make_initial_conditions(
            ICConfig(
                np_per_dim=config.np_per_dim,
                box=config.box,
                z_initial=config.z_initial,
                seed=config.seed,
            ),
            cosmo,
        )
        self.a = float(a_of_z(config.z_initial))
        self.a_final = float(a_of_z(config.z_final))
        # fixed scale-factor step, precomputed once (advance_step used to
        # recompute a_of_z(z_initial) — a root find — on every step)
        self._da = (self.a_final - self.a) / config.n_steps
        self.step = 0
        self.records: list[StepRecord] = []
        self._accel_cache: np.ndarray | None = None
        # conversion: positions stored in box units; PM works in grid cells
        self._cell = config.box / config.mesh_size
        #: the fused spectral PM engine (shared per (ng, workers) so the
        #: k-grids / Green's functions / CIC operator buffers persist
        #: across steps)
        self.pm = get_solver(config.mesh_size, workers=config.fft_workers)

    # -- mesh-unit helpers -------------------------------------------------

    @property
    def grid_positions(self) -> np.ndarray:
        """Particle positions in grid-cell units."""
        return self.particles.pos / self._cell

    def _compute_accelerations(self, a: float) -> np.ndarray:
        with get_recorder().span("sim.force", step=self.step + 1):
            return self.pm.accelerations(
                self.particles.pos, self.cosmo.poisson_factor(a), cell=self._cell
            )

    def _integrate(self, accel: np.ndarray, kick: float, drift: float | None = None) -> None:
        """``p += accel·kick``; with ``drift`` also ``x += p·drift`` and wrap.

        Runs block by block on the PM threads: every operation is
        per-element, so each row gets the same arithmetic at any worker
        count.  The products go to the range's scratch block, so no
        thread allocates.
        """
        p, x, box = self.particles.vel, self.particles.pos, self.particles.box

        def rows(block: slice, tmp: np.ndarray) -> None:
            pb = p[block]
            pb += np.multiply(accel[block], kick, out=tmp)
            if drift is not None:
                xb = x[block]
                xb += np.multiply(pb, drift, out=tmp)
                wrap_periodic(xb, box, scratch=tmp)

        self.pm.for_blocks(len(p), rows)

    # -- main loop -----------------------------------------------------------

    @property
    def z(self) -> float:
        """Current redshift."""
        return float(z_of_a(self.a))

    def run(self) -> list[StepRecord]:
        """Evolve to ``z_final``, invoking the analysis hook per step."""
        rec = get_recorder()
        with rec.span("sim.run", n_steps=self.config.n_steps):
            if self.call_at_start and self.analysis_manager is not None:
                self._invoke_analysis()
            while self.step < self.config.n_steps:
                self.advance_step()
        rec.event("sim.done", step=self.step, z=self.z)
        return self.records

    def advance_step(self) -> StepRecord:
        """One kick-drift-kick step in the scale factor."""
        rec = get_recorder()
        da = self._da  # precomputed in __init__ (fixed across the run)
        a0 = self.a
        a1 = a0 + da
        a_half = 0.5 * (a0 + a1)

        with rec.span("sim.step", step=self.step + 1):
            t0 = time.perf_counter()
            if self._accel_cache is None:
                self._accel_cache = self._compute_accelerations(a0)

            with rec.span("sim.integrate", step=self.step + 1):
                # kick (half) at a0, then drift (full) with midpoint factor
                drift = float(self.cosmo.f_drift(a_half) / a_half**2) * da
                self._integrate(
                    self._accel_cache, self.cosmo.f_drift(a0) * 0.5 * da, drift
                )

            # new force at a1, kick (half)
            accel = self._compute_accelerations(a1)
            with rec.span("sim.integrate", step=self.step + 1):
                self._integrate(accel, self.cosmo.f_drift(a1) * 0.5 * da)
            self._accel_cache = accel
            force_seconds = time.perf_counter() - t0

            self.a = a1
            self.step += 1
            record = StepRecord(
                step=self.step, a=self.a, z=self.z, force_seconds=force_seconds
            )
            self.records.append(record)
            rec.counter("sim_steps_total").inc()

            if self.analysis_manager is not None:
                self._invoke_analysis()
        return record

    def _invoke_analysis(self):
        return self.analysis_manager.execute(self, self.step, self.a)

    # -- convenience -----------------------------------------------------------

    def snapshot(self, into: Particles | None = None) -> Particles:
        """Deep copy of the current particle state (a Level 1 product).

        With ``into`` (a buffer from a previous snapshot) the state is
        copied into the existing arrays instead of allocating — the
        double-buffer path the pipelined in-situ manager uses so step
        *t*'s snapshot can be analysed while step *t+1* advances, at a
        steady-state cost of two extra particle buffers total.
        """
        if into is not None and len(into) == len(self.particles):
            return self.particles.copy_into(into)
        return self.particles.copy()
