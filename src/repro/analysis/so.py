"""Spherical overdensity (SO) halo mass estimation.

Paper §4.1 task 5: "Halo mass estimation based on a spherical
overdensity definition", seeded at the FOF halo centers (§3.3.2:
"Computation of spherical overdensity (SO) halos may also be seeded at
FOF halo centers") — which is why the fast SO step nevertheless has to
wait for the expensive center finder in the analysis sequence.

``so_mass`` computes, for a given center, the radius ``R_Δ`` within
which the mean enclosed density equals ``Δ`` times the reference density
(mean matter density by default), and the corresponding mass ``M_Δ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..check.sanitize import guard_kernel
from .fof import wrap_periodic

__all__ = ["SOResult", "so_mass", "so_masses_indexed"]


@dataclass(frozen=True)
class SOResult:
    """One SO measurement: overdensity radius, mass, and member count."""

    radius: float
    mass: float
    count: int
    converged: bool


@guard_kernel
def so_mass(
    pos: np.ndarray,
    center: np.ndarray,
    particle_mass: float,
    reference_density: float,
    delta: float = 200.0,
    box: float | None = None,
    search_radius: float | None = None,
) -> SOResult:
    """SO mass around one center.

    Parameters
    ----------
    pos:
        Candidate particle positions (typically the halo's particles
        plus a local neighborhood; a global set works but costs more).
    center:
        Seed center (the MBP center).
    particle_mass, reference_density:
        Mass per particle and the comparison density (e.g. the mean
        comoving matter density ``n_total * m / V_box``).
    delta:
        Overdensity threshold (200 is the conventional choice).
    box:
        Periodic wrap if given.
    search_radius:
        Optional hard cap on the search sphere.

    Notes
    -----
    ``R_Δ`` is the *outermost* radius where the enclosed mean density
    crosses ``Δ · ρ_ref`` from above; halos whose profile never reaches
    the threshold return ``converged=False`` with the innermost particle
    count.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    center = np.asarray(center, dtype=float)
    d = pos - center
    if box is not None:
        d -= box * np.round(d / box)
    r = np.sqrt(np.sum(d * d, axis=1))
    if search_radius is not None:
        r = r[r <= search_radius]
    if len(r) == 0:
        return SOResult(radius=0.0, mass=0.0, count=0, converged=False)
    r = np.sort(r)
    # avoid zero radius for the seed particle itself
    r = np.maximum(r, 1e-12)
    enclosed_mass = particle_mass * np.arange(1, len(r) + 1)
    volume = 4.0 / 3.0 * np.pi * r**3
    mean_density = enclosed_mass / volume
    threshold = delta * reference_density
    above = mean_density >= threshold
    if not above.any():
        return SOResult(radius=float(r[0]), mass=particle_mass, count=1, converged=False)
    # outermost crossing: last index where density is still above threshold
    k = int(np.max(np.flatnonzero(above)))
    # converged iff the profile actually drops below the threshold inside
    # the sampled particle set; if the outermost particle is still above,
    # R_delta may lie beyond the supplied candidates.
    return SOResult(
        radius=float(r[k]),
        mass=float(enclosed_mass[k]),
        count=k + 1,
        converged=k < len(r) - 1,
    )


def so_masses_indexed(
    pos: np.ndarray,
    box: float,
    centers: np.ndarray,
    particle_mass: float,
    reference_density: float,
    delta: float = 200.0,
    initial_radii: np.ndarray | float | None = None,
    *,
    min_radius: float,
) -> list[SOResult]:
    """SO masses for many centers from periodic neighborhood spheres.

    Instead of scanning the full particle set per center, each center
    asks a periodic ``cKDTree`` over ``pos`` for a candidate sphere and
    doubles it until the SO profile converges inside the sampled set.

    Parameters
    ----------
    pos, box:
        The full particle set and its periodic box side.
    centers:
        ``(m, 3)`` seed centers.
    initial_radii:
        Per-center (or scalar) starting search radius; defaults to four
        ``min_radius``.  Radii are clamped to ``[min_radius, box / 2]``;
        at half the box the candidate set is the whole box and the
        result is exact.

    Notes
    -----
    The schedule depends only on the inputs and each sphere's indices
    come back ascending, so the per-center reduction order is stable.
    Results match a full scan whenever the profile converges (and
    exactly once the cap is hit).
    """
    if min_radius <= 0:
        raise ValueError("min_radius must be positive")
    pos = np.mod(np.atleast_2d(np.asarray(pos, dtype=float)), box)
    tree = cKDTree(wrap_periodic(pos, box), boxsize=box)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    r_max = 0.5 * box
    if initial_radii is None:
        initial_radii = 4.0 * min_radius
    radii = np.broadcast_to(
        np.asarray(initial_radii, dtype=float), (len(centers),)
    ).copy()
    np.clip(radii, min_radius, r_max, out=radii)

    results: list[SOResult] = []
    for c, r0 in zip(centers, radii):
        r = float(r0)
        while True:
            candidates = tree.query_ball_point(c, r, return_sorted=True)
            if len(candidates) == 0:
                result = SOResult(radius=0.0, mass=0.0, count=0, converged=False)
            else:
                result = so_mass(
                    pos[candidates],
                    c,
                    particle_mass=particle_mass,
                    reference_density=reference_density,
                    delta=delta,
                    box=box,
                    search_radius=r,
                )
            # Unconverged means R_delta may lie beyond the sampled
            # sphere: double and retry until the cap (= whole box).
            if result.converged or r >= r_max:
                break
            r = min(2.0 * r, r_max)
        results.append(result)
    return results
