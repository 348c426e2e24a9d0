"""Test oracle: the function-at-a-time particle-mesh chain.

CIC deposit (8 × ``np.add.at``), FFT Poisson solve, spectral gradient and
CIC interpolation as four independent numpy functions — 6 full-mesh FFTs
per force evaluation, φ materialized in real space.  This was the
simulation's first PM implementation; :class:`repro.sim.pmsolver.PMSolver`
replaced it in ``src/`` and is cross-validated against it here, the same
precedent as ``potential_reference`` for the center-finder kernels.

All functions work in *grid units*: positions in ``[0, ng)`` cells, the
density field is the overdensity ``delta = rho/rho_bar - 1`` on an
``ng^3`` periodic mesh.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cic_deposit",
    "cic_interpolate",
    "solve_poisson",
    "gradient_spectral",
    "pm_accelerations",
]


def cic_deposit(
    pos_grid: np.ndarray,
    ng: int,
    weights: np.ndarray | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Cloud-in-cell mass deposit onto a periodic ``ng^3`` mesh.

    Parameters
    ----------
    pos_grid:
        ``(n, 3)`` positions in grid units ``[0, ng)``.
    ng:
        Mesh size per dimension.
    weights:
        Optional per-particle masses (default 1).
    normalize:
        When true (default) return the zero-mean overdensity
        ``delta = rho/rho_bar - 1``.  When false return the *raw* mass
        mesh — additive across particle subsets, which is what one-pass
        streaming accumulation folds chunk by chunk before normalizing
        once at the end.

    Returns
    -------
    The overdensity field ``delta`` with zero mean (or the raw mass
    mesh when ``normalize=False``).
    """
    pos = np.mod(np.asarray(pos_grid, dtype=np.float64), ng)
    n = len(pos)
    rho = np.zeros((ng, ng, ng), dtype=np.float64)
    if n == 0:
        return rho
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)

    i0 = np.floor(pos).astype(np.intp)
    frac = pos - i0
    i0 %= ng
    i1 = (i0 + 1) % ng

    wx = (1.0 - frac[:, 0], frac[:, 0])
    wy = (1.0 - frac[:, 1], frac[:, 1])
    wz = (1.0 - frac[:, 2], frac[:, 2])
    ix = (i0[:, 0], i1[:, 0])
    iy = (i0[:, 1], i1[:, 1])
    iz = (i0[:, 2], i1[:, 2])

    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                np.add.at(rho, (ix[a], iy[b], iz[c]), w * wx[a] * wy[b] * wz[c])

    if not normalize:
        return rho
    mean = w.sum() / ng**3
    rho /= mean
    rho -= 1.0
    return rho


def cic_interpolate(field: np.ndarray, pos_grid: np.ndarray) -> np.ndarray:
    """Cloud-in-cell interpolation of a mesh ``field`` to particle positions.

    ``field`` may have shape ``(ng, ng, ng)`` (scalar) or
    ``(k, ng, ng, ng)`` (vector components); the result has shape ``(n,)``
    or ``(n, k)`` respectively.
    """
    field = np.asarray(field)
    vector = field.ndim == 4
    ng = field.shape[-1]
    pos = np.mod(np.asarray(pos_grid, dtype=np.float64), ng)
    n = len(pos)

    i0 = np.floor(pos).astype(np.intp)
    frac = pos - i0
    i0 %= ng
    i1 = (i0 + 1) % ng

    wx = (1.0 - frac[:, 0], frac[:, 0])
    wy = (1.0 - frac[:, 1], frac[:, 1])
    wz = (1.0 - frac[:, 2], frac[:, 2])
    ix = (i0[:, 0], i1[:, 0])
    iy = (i0[:, 1], i1[:, 1])
    iz = (i0[:, 2], i1[:, 2])

    if vector:
        out = np.zeros((n, field.shape[0]))
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    w = wx[a] * wy[b] * wz[c]
                    out += w[:, None] * field[:, ix[a], iy[b], iz[c]].T
        return out
    out_s = np.zeros(n)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                out_s += wx[a] * wy[b] * wz[c] * field[ix[a], iy[b], iz[c]]
    return out_s


def _k_grid(ng: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular wavenumbers (grid units) for an rfftn-layout mesh."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(ng)
    kz = 2.0 * np.pi * np.fft.rfftfreq(ng)
    return k1[:, None, None], k1[None, :, None], kz[None, None, :]


def solve_poisson(delta: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """Solve ``∇²φ = factor * delta`` on the periodic mesh (spectral).

    Uses the exact spectral Green's function ``-1/k²`` with the k=0 mode
    zeroed (the mean of phi is gauge).
    """
    ng = delta.shape[0]
    dk = np.fft.rfftn(delta)
    kx, ky, kz = _k_grid(ng)
    k2 = kx**2 + ky**2 + kz**2
    with np.errstate(divide="ignore", invalid="ignore"):
        phik = np.where(k2 > 0, -factor * dk / k2, 0.0)
    return np.fft.irfftn(phik, s=delta.shape, axes=(0, 1, 2))


def gradient_spectral(field: np.ndarray) -> np.ndarray:
    """Spectral gradient of a periodic mesh field; shape ``(3, ng, ng, ng)``."""
    ng = field.shape[0]
    fk = np.fft.rfftn(field)
    kx, ky, kz = _k_grid(ng)
    out = np.empty((3, *field.shape))
    for axis, k in enumerate((kx, ky, kz)):
        out[axis] = np.fft.irfftn(1j * k * fk, s=field.shape, axes=(0, 1, 2))
    return out


def pm_accelerations(pos_grid: np.ndarray, ng: int, poisson_factor: float) -> np.ndarray:
    """One full PM force evaluation; per-particle ``-∇φ`` in grid units."""
    delta = cic_deposit(pos_grid, ng)
    phi = solve_poisson(delta, factor=poisson_factor)
    grad = gradient_spectral(phi)
    return -cic_interpolate(grad, pos_grid)
