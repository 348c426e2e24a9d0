"""Test oracle for spherical-overdensity masses.

``so_masses`` is the full scan: every center measured against the whole
particle set with :func:`repro.analysis.so.so_mass`.  The neighborhood
path (:func:`repro.analysis.so.so_masses_indexed`) must give the same
``SOResult`` whenever its sphere converges, and always once the sphere
reaches half the box.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.so import SOResult, so_mass

__all__ = ["so_masses"]


def so_masses(
    pos: np.ndarray,
    centers: np.ndarray,
    particle_mass: float,
    reference_density: float,
    delta: float = 200.0,
    box: float | None = None,
    search_radius: float | None = None,
) -> list[SOResult]:
    """SO masses for many centers against a common particle set."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return [
        so_mass(
            pos,
            c,
            particle_mass=particle_mass,
            reference_density=reference_density,
            delta=delta,
            box=box,
            search_radius=search_radius,
        )
        for c in centers
    ]
