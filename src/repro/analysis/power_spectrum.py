"""Matter power spectrum measurement (the paper's flagship in-situ task).

Paper §1: "the determination of the density fluctuation power spectrum
... requires a density estimation on a regular grid via, e.g., a
Cloud-In-Cell (CIC) algorithm and very large FFTs.  Both of the
algorithms are efficiently parallelizable and ... the determination of
the power spectrum takes only a few minutes, a small fraction of the
computational time required for a single time step.  Therefore, the
power spectrum was determined at regular intervals as an in-situ
operation during the full runs."

``measure_power_spectrum`` deposits particles with CIC, FFTs the
overdensity, deconvolves the CIC mass-assignment window, subtracts shot
noise, and shell-averages |δ_k|² into bins of |k|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.pmsolver import get_solver

__all__ = ["PowerSpectrumResult", "measure_power_spectrum", "power_spectrum_from_delta"]


@dataclass(frozen=True)
class PowerSpectrumResult:
    """Binned P(k): bin centers, power, mode counts, and metadata."""

    k: np.ndarray  # (nbins,) mean wavenumber per bin, h/Mpc
    power: np.ndarray  # (nbins,) (Mpc/h)^3
    n_modes: np.ndarray  # (nbins,) modes per bin
    box: float
    ng: int
    shot_noise: float

    @property
    def nyquist(self) -> float:
        """Nyquist wavenumber of the measurement mesh."""
        return np.pi * self.ng / self.box


def measure_power_spectrum(
    pos: np.ndarray,
    box: float,
    ng: int,
    n_bins: int | None = None,
    deconvolve_cic: bool = True,
    subtract_shot_noise: bool = True,
) -> PowerSpectrumResult:
    """Measure P(k) of a particle distribution in a periodic box.

    Parameters
    ----------
    pos:
        ``(n, 3)`` positions in box units.
    box:
        Box side (Mpc/h).
    ng:
        FFT mesh size per dimension.
    n_bins:
        Number of linear k bins out to the Nyquist frequency
        (default ``ng // 2``).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n_particles = len(pos)
    if n_particles == 0:
        raise ValueError("no particles")
    delta = get_solver(ng).deposit(pos / (box / ng))
    return power_spectrum_from_delta(
        delta,
        box,
        ng,
        n_particles,
        n_bins=n_bins,
        deconvolve_cic=deconvolve_cic,
        subtract_shot_noise=subtract_shot_noise,
    )


def power_spectrum_from_delta(
    delta: np.ndarray,
    box: float,
    ng: int,
    n_particles: int,
    n_bins: int | None = None,
    deconvolve_cic: bool = True,
    subtract_shot_noise: bool = True,
) -> PowerSpectrumResult:
    """Measure P(k) from an already-deposited CIC overdensity mesh.

    The back half of :func:`measure_power_spectrum`, split out so
    callers that build ``delta`` incrementally — the one-pass streaming
    accumulator folds raw CIC mass chunk by chunk and normalizes once —
    share the exact FFT / deconvolution / binning sequence with the
    in-memory path.  ``n_particles`` sets the shot-noise level.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (ng, ng, ng):
        raise ValueError(f"delta shape {delta.shape} != ({ng}, {ng}, {ng})")
    if n_particles <= 0:
        raise ValueError("no particles")
    dk = np.fft.rfftn(delta)

    kf = 2.0 * np.pi / box
    kx = kf * np.fft.fftfreq(ng, d=1.0 / ng)
    kz = kf * np.fft.rfftfreq(ng, d=1.0 / ng)
    kmag = np.sqrt(
        kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
    )

    # CIC window deconvolution: W(k) = prod_i sinc^2(k_i L / 2 ng)
    if deconvolve_cic:
        def sinc(x: np.ndarray) -> np.ndarray:
            return np.sinc(x / np.pi)  # numpy sinc is sin(pi x)/(pi x)

        wx = sinc(kx * box / (2 * ng)) ** 2
        wz = sinc(kz * box / (2 * ng)) ** 2
        window = wx[:, None, None] * wx[None, :, None] * wz[None, None, :]
        dk = dk / np.maximum(window, 1e-8)

    volume = box**3
    pk3d = (np.abs(dk) ** 2) * volume / ng**6

    shot = volume / n_particles
    if subtract_shot_noise:
        pk3d = pk3d - shot

    # rfft stores only half the modes along z; weight interior planes x2
    weights = np.full(dk.shape, 2.0)
    weights[:, :, 0] = 1.0
    if ng % 2 == 0:
        weights[:, :, -1] = 1.0

    if n_bins is None:
        n_bins = ng // 2
    k_nyq = np.pi * ng / box
    edges = np.linspace(kf / 2, k_nyq, n_bins + 1)
    flat_k = kmag.ravel()
    flat_p = pk3d.ravel()
    flat_w = weights.ravel()
    sel = (flat_k >= edges[0]) & (flat_k < edges[-1])
    which = np.digitize(flat_k[sel], edges) - 1

    n_modes = np.bincount(which, weights=flat_w[sel], minlength=n_bins)
    k_sum = np.bincount(which, weights=(flat_k * flat_w)[sel], minlength=n_bins)
    p_sum = np.bincount(which, weights=(flat_p * flat_w)[sel], minlength=n_bins)
    nonzero = n_modes > 0
    k_mean = np.where(nonzero, k_sum / np.maximum(n_modes, 1), 0.0)
    p_mean = np.where(nonzero, p_sum / np.maximum(n_modes, 1), 0.0)

    return PowerSpectrumResult(
        k=k_mean[nonzero],
        power=p_mean[nonzero],
        n_modes=n_modes[nonzero].astype(np.int64),
        box=box,
        ng=ng,
        shot_noise=shot,
    )
