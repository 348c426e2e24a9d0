"""Halo analysis algorithms (the CosmoTools algorithm library).

FOF halo finding (serial and distributed, over one compiled pair search),
MBP center finding (brute force over one compiled pair kernel, and
approximations), SPH density + subhalo finding with
unbinding, spherical overdensity masses, the power spectrum, and the halo
mass function.
"""

from .centers import (
    CenterStats,
    DEFAULT_SOFTENING,
    approximate_center_densest_cell,
    approximate_center_of_mass,
    center_finding_cost,
    group_halo_members,
    halo_centers,
    mbp_center_bruteforce,
    potential_bruteforce,
)
from .fof import (
    DEFAULT_MIN_COUNT,
    FOFResult,
    fof_grid,
    halo_groups,
    parallel_fof,
)
from .mass_function import MassFunction, mass_function, scale_counts, split_by_threshold
from .power_spectrum import PowerSpectrumResult, measure_power_spectrum
from .so import SOResult, so_mass, so_masses_indexed
from .sph import cubic_spline_kernel, knn_neighbors, sph_density
from .subhalos import DEFAULT_MIN_SUBHALO, SubhaloResult, find_subhalos, unbind_particles
from .union_find import DisjointSet, GrowableDisjointSet

__all__ = [
    "CenterStats",
    "DEFAULT_SOFTENING",
    "approximate_center_densest_cell",
    "approximate_center_of_mass",
    "center_finding_cost",
    "group_halo_members",
    "halo_centers",
    "mbp_center_bruteforce",
    "potential_bruteforce",
    "DEFAULT_MIN_COUNT",
    "FOFResult",
    "fof_grid",
    "halo_groups",
    "parallel_fof",
    "MassFunction",
    "mass_function",
    "scale_counts",
    "split_by_threshold",
    "PowerSpectrumResult",
    "measure_power_spectrum",
    "SOResult",
    "so_mass",
    "so_masses_indexed",
    "cubic_spline_kernel",
    "knn_neighbors",
    "sph_density",
    "DEFAULT_MIN_SUBHALO",
    "SubhaloResult",
    "find_subhalos",
    "unbind_particles",
    "DisjointSet",
    "GrowableDisjointSet",
]
