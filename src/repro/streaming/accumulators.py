"""One-pass accumulators: fold each chunk into fixed-size state.

The sketch half of the arXiv:1711.00975 blueprint.  Each accumulator
consumes retirement batches (mass function, heavy hitters) or raw chunks
(power spectrum) and holds O(bins + k + ng³) state independent of the
stream length.

Exactness:

* :class:`StreamingMassFunction` — bit-identical to
  :func:`~repro.analysis.mass_function.mass_function` called with the
  same explicit ``(lo, hi, n_bins)``: integer histogram counts over a
  shared fixed edge array (:func:`~repro.analysis.mass_function.log_bin_edges`)
  are additive across batches.
* :class:`MisraGries` — the deterministic weighted heavy-hitter sketch:
  any halo whose mass exceeds ``total_weight / (k + 1)`` is guaranteed
  present, and estimates undercount by at most that same bound.
* :class:`StreamingPowerSpectrum` — folds *raw* CIC mass per chunk and
  normalizes once at the end, then reuses the in-memory FFT/binning
  path verbatim.  Bit-identical to the one-shot measurement of the
  slab-sorted particles for a single chunk (same op sequence); across
  chunks (or versus unsorted input) the per-cell deposit order differs,
  so agreement is to float addition reordering (~1e-12 relative), which
  the tests pin down.
"""

from __future__ import annotations

import numpy as np

from ..analysis.mass_function import MassFunction, log_bin_edges
from ..analysis.power_spectrum import PowerSpectrumResult, power_spectrum_from_delta
from ..sim.pmsolver import get_solver

__all__ = ["StreamingMassFunction", "MisraGries", "StreamingPowerSpectrum"]


class StreamingMassFunction:
    """Fold retired halo counts into a fixed log-binned histogram.

    The in-memory comparison point must use the same explicit
    ``(lo, hi, n_bins)`` — data-dependent default edges cannot be known
    one-pass.
    """

    def __init__(self, lo: float, hi: float, n_bins: int = 32):
        self.bin_edges = log_bin_edges(lo, hi, n_bins)
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.n_halos = 0

    def update(self, halo_counts: np.ndarray) -> None:
        """Fold one batch of halo sizes (particle counts)."""
        batch = np.asarray(halo_counts, dtype=float)
        if batch.size == 0:
            return
        hist, _ = np.histogram(batch, bins=self.bin_edges)
        self.counts += hist.astype(np.int64)
        self.n_halos += int(batch.size)

    def finalize(self) -> MassFunction:
        return MassFunction(bin_edges=self.bin_edges.copy(), counts=self.counts.copy())


class MisraGries:
    """Deterministic weighted Misra–Gries heavy-hitter sketch.

    Tracks at most ``k`` ``key -> weight`` counters; offering a new key
    when full decrements every counter by the overflow (evicting zeros)
    until room appears.  For total offered weight ``W``, every key with
    true weight ``> W / (k + 1)`` survives, and surviving estimates
    undercount true weight by at most ``W / (k + 1)``.  Fully
    deterministic given offer order — the streaming finder retires in a
    deterministic order, so two runs produce the same sketch.
    """

    def __init__(self, k: int = 32):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._items: dict[int, int] = {}
        self.total_weight = 0

    def update(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Offer a batch of ``(key, weight)`` pairs in order."""
        for key, w in zip(
            np.asarray(keys, dtype=np.int64).tolist(),
            np.asarray(weights, dtype=np.int64).tolist(),
        ):
            self.offer(int(key), int(w))

    def offer(self, key: int, weight: int) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.total_weight += weight
        items = self._items
        w = weight
        while w > 0:
            if key in items:
                items[key] += w
                return
            if len(items) < self.k:
                items[key] = w
                return
            d = min(min(items.values()), w)
            for kk in list(items):
                v = items[kk] - d
                if v:
                    items[kk] = v
                else:
                    del items[kk]
            w -= d

    @property
    def error_bound(self) -> float:
        """Maximum undercount of any surviving estimate."""
        return self.total_weight / (self.k + 1)

    def estimate(self, key: int) -> int:
        """Lower-bound weight estimate (0 if the key was evicted)."""
        return self._items.get(int(key), 0)

    def top(self, n: int | None = None) -> list[tuple[int, int]]:
        """``(key, estimate)`` pairs, heaviest first (ties by key)."""
        ranked = sorted(self._items.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if n is None else ranked[:n]


class StreamingPowerSpectrum:
    """Fold raw CIC mass per chunk; FFT and bin once at the end."""

    def __init__(
        self,
        box: float,
        ng: int,
        n_bins: int | None = None,
        deconvolve_cic: bool = True,
        subtract_shot_noise: bool = True,
    ):
        if box <= 0:
            raise ValueError("box must be positive")
        if ng < 2:
            raise ValueError("ng must be >= 2")
        self.box = float(box)
        self.ng = int(ng)
        self.n_bins = n_bins
        self.deconvolve_cic = deconvolve_cic
        self.subtract_shot_noise = subtract_shot_noise
        self.rho = np.zeros((ng, ng, ng), dtype=np.float64)
        self._weight_sum = 0.0
        self.n_particles = 0

    def update(self, pos: np.ndarray) -> None:
        """Deposit one chunk's mass onto the accumulated mesh."""
        pos = np.atleast_2d(np.asarray(pos, dtype=np.float64))
        if len(pos) == 0:
            return
        self.rho += get_solver(self.ng).deposit(
            pos / (self.box / self.ng), normalize=False
        )
        # mirror the in-memory normalization exactly: w.sum() of unit
        # weights, accumulated chunk by chunk (exact for n < 2**53)
        self._weight_sum += float(np.ones(len(pos)).sum())
        self.n_particles += len(pos)

    def finalize(self) -> PowerSpectrumResult:
        if self.n_particles == 0:
            raise ValueError("no particles")
        # same op sequence as PMSolver.deposit(normalize=True): /= mean, -= 1
        delta = self.rho.copy()
        delta /= self._weight_sum / self.ng**3
        delta -= 1.0
        return power_spectrum_from_delta(
            delta,
            self.box,
            self.ng,
            self.n_particles,
            n_bins=self.n_bins,
            deconvolve_cic=self.deconvolve_cic,
            subtract_shot_noise=self.subtract_shot_noise,
        )
