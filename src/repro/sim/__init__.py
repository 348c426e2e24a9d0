"""Mini-HACC: cosmological particle-mesh N-body simulation substrate.

Provides the Level 1 data producer the workflow framework analyzes:
ΛCDM background (:mod:`.cosmology`), Eisenstein–Hu linear power spectrum
(:mod:`.power`), Zel'dovich initial conditions
(:mod:`.initial_conditions`), CIC/FFT particle-mesh gravity (:mod:`.pmsolver`),
and the time-stepping driver with CosmoTools hooks (:mod:`.hacc`).
"""

from .cosmology import Cosmology, QCONTINUUM_COSMOLOGY, a_of_z, z_of_a
from .hacc import HACCSimulation, SimulationConfig, StepRecord
from .initial_conditions import ICConfig, gaussian_field, make_initial_conditions, za_displacements
from .particles import BYTES_PER_PARTICLE, LEVEL1_SCHEMA, Particles
from .pmsolver import PMSolver, get_solver
from .power import LinearPower, transfer_eisenstein_hu

__all__ = [
    "Cosmology",
    "QCONTINUUM_COSMOLOGY",
    "a_of_z",
    "z_of_a",
    "HACCSimulation",
    "SimulationConfig",
    "StepRecord",
    "ICConfig",
    "gaussian_field",
    "make_initial_conditions",
    "za_displacements",
    "BYTES_PER_PARTICLE",
    "LEVEL1_SCHEMA",
    "Particles",
    "PMSolver",
    "get_solver",
    "LinearPower",
    "transfer_eisenstein_hu",
]
