"""Fused spectral particle-mesh force engine (the PM hot path).

One force evaluation is ``scatter → 4 FFTs → gather``.  :class:`PMSolver`
runs all three stages off a single sparse cloud-in-cell operator:

* **one CIC operator per evaluation** — a ``scipy.sparse`` CSR matrix
  ``W`` of shape ``(n, ng³)`` with exactly 8 entries per row (the corner
  cell of each particle and its trilinear weight, in the ``(a, b, c) ∈
  {0,1}³`` loop-nest order).  The scatter is ``Wᵀ @ masses`` and the
  gather is ``W @ mesh``, so the two are adjoint by construction — the
  matched scatter/gather pair that makes the PM force conserve momentum.
* **cache-blocked build** — ``W`` is filled :data:`_BLOCK_ROWS` particles
  at a time into reusable ``(n, 8)`` index/weight buffers: per block,
  transpose to structure-of-arrays, ``floor``, integer ``%= ng``, 8 corner
  writes.  Every temporary stays cache-resident and each particle is
  touched once.  Indices are ``int32`` whenever ``8n`` and ``ng³`` fit
  (``int64`` otherwise); positions too large for the index type raise
  instead of wrapping.
* **a single gather** — the three inverse transforms are laid out as one
  ``(ng³, 3)`` mesh, so ``W @ mesh`` reads each corner's three force
  components from one cache line and sums the 8 corners in operator
  order: accelerations are bit-identical for any block size.
* **4 FFTs, never materializing φ** — Poisson (``-1/k²``) and gradient
  (``i·k``) are applied together in k-space to the single forward
  transform of δ:  ``a_k = i k · factor · δ_k / k²``.  Transforms run on
  ``scipy.fft`` with ``workers=``; pocketfft threads over independent
  1-D lines, so results are bit-identical for any worker count.

The function-at-a-time 6-FFT chain this engine replaced lives on as the
test oracle ``tests/oracles/pm_reference.py``.

Purity contract: no wall-clock reads in this module (rule RPR003 covers
it); timing is spans, whose clock lives in ``repro.obs`` where it
belongs.  Every stage of :meth:`PMSolver.accelerations` sits under one
of the spans ``sim.pm.deposit`` (operator build + scatter),
``sim.pm.fft`` or ``sim.pm.gather``.  The standalone :meth:`deposit` /
:meth:`inverse_gradient` / :meth:`potential` open no span: their time
belongs to the caller's (an in-situ power spectrum, a streamed chunk,
the initial conditions).
"""

from __future__ import annotations

import os
import threading

import numpy as np
from scipy import fft as sp_fft
from scipy import sparse

from ..check.sanitize import guard_kernel
from ..obs import get_recorder

__all__ = ["PMSolver", "get_solver", "clear_solver_cache", "resolve_fft_workers"]

#: Cap on auto-detected FFT threads: beyond this the per-transform lines
#: are too short for threading to pay at mini-HACC mesh sizes.
_MAX_AUTO_WORKERS = 8

#: Particle rows per operator-build block.  A block's SoA temporaries plus
#: its slices of the index/weight buffers come to ~200 B/row, so 4096 rows
#: stay L2-resident (measured at 64³: 12 ms blocked vs 27 ms whole-array).
#: Results do not depend on it.
_BLOCK_ROWS = 4096


def resolve_fft_workers(workers: int | None = None) -> int:
    """Resolve the FFT thread count.

    Explicit ``workers`` wins; else the ``REPRO_PM_WORKERS`` environment
    variable; else the CPU count capped at ``8``.  Always ≥ 1.  The
    transforms are bit-identical for any value, so this is purely a
    throughput knob.
    """
    if workers is None:
        env = os.environ.get("REPRO_PM_WORKERS", "").strip()
        if env:
            workers = int(env)
        else:
            workers = min(os.cpu_count() or 1, _MAX_AUTO_WORKERS)
    return max(int(workers), 1)


def _index_dtype(n: int, ng: int) -> type[np.signedinteger]:
    """Operator index type: ``int32`` when ``8n`` and ``ng³`` fit, else ``int64``.

    The same rule scipy applies to ``(indices, indptr)``, so the buffers
    are adopted without a copy and never narrowed behind our back.
    """
    return np.int32 if max(8 * n, ng**3) <= np.iinfo(np.int32).max else np.int64


class PMSolver:
    """Stateful fused spectral PM solver for one mesh size ``ng``.

    Precomputes the k-grids and the combined Poisson+gradient kernels
    ``i·k_axis / k²`` once per ``ng`` and keeps the CIC operator's
    ``(n, 8)`` buffers alive across calls, so a steady-state force
    evaluation allocates only the FFT work arrays and the returned
    acceleration array.

    Parameters
    ----------
    ng:
        Mesh size per dimension.
    workers:
        FFT threads (see :func:`resolve_fft_workers`).

    Notes
    -----
    Arrays returned by :meth:`deposit` and :meth:`accelerations` are
    freshly allocated (safe to hold across calls); only the operator's
    buffers are reused.
    """

    def __init__(self, ng: int, workers: int | None = None):
        if ng < 2:
            raise ValueError("ng must be >= 2")
        self.ng = int(ng)
        self.workers = resolve_fft_workers(workers)
        self.fft_count = 0  # lifetime transforms (forward + inverse)

        k1 = 2.0 * np.pi * np.fft.fftfreq(self.ng)
        kz = 2.0 * np.pi * np.fft.rfftfreq(self.ng)
        kx = k1[:, None, None]
        ky = k1[None, :, None]
        kzb = kz[None, None, :]
        k2 = kx**2 + ky**2 + kzb**2
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_k2 = np.where(k2 > 0, 1.0 / k2, 0.0)
        #: Green's-function × gradient kernels, one per axis:
        #: ``a_k(axis) = factor * _grad_kernels[axis] * δ_k`` gives the
        #: acceleration mesh ``-∇φ`` for ``∇²φ = factor·δ`` directly.
        self._grad_kernels = tuple(
            (1j * k * inv_k2).astype(np.complex128) for k in (kx, ky, kzb)
        )
        self._inv_k2 = inv_k2
        #: the CIC operator over its reusable buffers (rebuilt only when
        #: the particle count changes; refilled in place otherwise)
        self._op: sparse.csr_matrix | None = None
        #: held while the operator is filled and used: a cached solver is
        #: shared by the simulation loop and by power-spectrum deposits,
        #: which the pipelined in-situ manager runs on a worker thread
        self._op_lock = threading.Lock()

    # -- the CIC operator (scatter is Wᵀ, gather is W) -------------------------

    def _operator(self, pos: np.ndarray) -> sparse.csr_matrix:
        """Fill and return the ``(n, ng³)`` CIC operator for ``pos``.

        Row ``i`` holds particle ``i``'s 8 corner cells (flattened mesh
        index) and trilinear weights, corners in ``(a, b, c) ∈ {0,1}³``
        loop-nest order with weight ``(wx·wy)·wz``.  Any finite position
        is folded into the periodic mesh by the integer ``%= ng``.
        """
        ng = self.ng
        n = len(pos)
        if self._op is None or self._op.shape[0] != n:
            itype = _index_dtype(n, ng)
            self._op = sparse.csr_matrix(
                (
                    np.empty(8 * n, dtype=np.float64),
                    np.empty(8 * n, dtype=itype),
                    np.arange(0, 8 * n + 1, 8, dtype=itype),
                ),
                shape=(n, ng**3),
                copy=False,
            )
        op = self._op
        itype = op.indices.dtype
        idx = op.indices.reshape(n, 8)
        wts = op.data.reshape(n, 8)
        mesh_strides = np.array([[ng * ng], [ng], [1]], dtype=itype)
        # a float → int cast that does not fit sets the FP invalid flag:
        # raise on it rather than deposit into a wrapped-around cell
        with np.errstate(invalid="raise"):
            for start in range(0, n, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                frac = pos[block].T.copy()  # (3, rows) SoA; always a copy
                lo = np.floor(frac)
                i0 = lo.astype(itype)
                frac -= lo
                np.subtract(1.0, frac, out=lo)  # lo: weight of the lower corner
                i0 %= ng
                i1 = i0 + 1
                i1[i1 == ng] = 0
                i0 *= mesh_strides
                i1 *= mesh_strides
                wx, wy, wz = zip(lo, frac)
                ix, iy, iz = zip(i0, i1)
                corner = 0
                for a in (0, 1):
                    for b in (0, 1):
                        ixy = ix[a] + iy[b]
                        wxy = wx[a] * wy[b]
                        for c in (0, 1):
                            np.add(ixy, iz[c], out=idx[block, corner])
                            np.multiply(wxy, wz[c], out=wts[block, corner])
                            corner += 1
        return op

    def _scatter(
        self, op: sparse.csr_matrix, weights: np.ndarray | None, normalize: bool
    ) -> np.ndarray:
        """``Wᵀ @ masses`` → raw mass mesh, or the overdensity δ."""
        ng = self.ng
        n = op.shape[0]
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        rho = (op.T @ w).reshape(ng, ng, ng)
        if normalize:
            total = float(n) if weights is None else float(w.sum())
            mean = total / ng**3
            if mean > 0:
                rho /= mean
            rho -= 1.0
        return rho

    # -- public kernels --------------------------------------------------------

    @guard_kernel(name="PMSolver.deposit")
    def deposit(
        self,
        pos_grid: np.ndarray,
        weights: np.ndarray | None = None,
        normalize: bool = True,
    ) -> np.ndarray:
        """CIC mass deposit onto the periodic ``ng³`` mesh.

        Parameters
        ----------
        pos_grid:
            ``(n, 3)`` positions in grid units (any finite value; folded
            periodically).
        weights:
            Optional per-particle masses (default 1).
        normalize:
            When true (default) return the zero-mean overdensity
            ``δ = ρ/ρ̄ - 1``.  When false return the *raw* mass mesh —
            additive across particle subsets, which is what one-pass
            streaming accumulation folds chunk by chunk before
            normalizing once at the end.
        """
        pos = np.atleast_2d(np.asarray(pos_grid, dtype=np.float64))
        if len(pos) == 0:
            return np.zeros((self.ng, self.ng, self.ng), dtype=np.float64)
        with self._op_lock:
            return self._scatter(self._operator(pos), weights, normalize)

    def potential(self, delta: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """Real-space φ with ``∇²φ = factor·δ`` (cross-validation path).

        The fused force path never materializes φ; this method exists so
        tests can compare against the oracle ``solve_poisson``.
        """
        dk = sp_fft.rfftn(np.asarray(delta, dtype=np.float64), workers=self.workers)
        phik = -factor * self._inv_k2 * dk
        out = sp_fft.irfftn(phik, s=delta.shape, workers=self.workers)
        self._count_ffts(2)
        return out

    def inverse_gradient(self, delta: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """Mesh field ``F`` with ``F_k = factor · i k δ_k / k²``.

        This is simultaneously the acceleration mesh ``-∇φ`` for
        ``∇²φ = factor·δ`` (grid wavenumbers) and — scaled by the cell
        size — the Zel'dovich displacement field ``ψ`` solving
        ``δ = -∇·ψ``.  4 transforms, φ never materialized.
        """
        delta = np.asarray(delta, dtype=np.float64)
        ng = self.ng
        dk = sp_fft.rfftn(delta, workers=self.workers)
        out = np.empty((3, ng, ng, ng), dtype=np.float64)
        for axis, kern in enumerate(self._grad_kernels):
            out[axis] = sp_fft.irfftn(factor * kern * dk, s=delta.shape, workers=self.workers)
        self._count_ffts(4)
        return out

    @guard_kernel(name="PMSolver.accelerations")
    def accelerations(
        self,
        pos_grid: np.ndarray,
        factor: float,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """One fused PM force evaluation: scatter → k-space → gather.

        Returns per-particle accelerations ``-∇φ`` in grid units for
        ``∇²φ = factor·δ``; numerically equivalent to the oracle
        ``cic_deposit → solve_poisson → gradient_spectral →
        cic_interpolate`` chain (rtol ≲ 1e-12) at 4 FFTs instead of 6
        and one CIC operator shared by scatter and gather.
        """
        pos = np.atleast_2d(np.asarray(pos_grid, dtype=np.float64))
        if len(pos) == 0:
            return np.zeros((0, 3), dtype=np.float64)
        ng = self.ng
        rec = get_recorder()

        with self._op_lock:
            with rec.span("sim.pm.deposit"):
                op = self._operator(pos)
                delta = self._scatter(op, weights, normalize=True)

            with rec.span("sim.pm.fft"):
                dk = sp_fft.rfftn(delta, workers=self.workers)
                # the three force components of a cell side by side, so
                # the gather reads each corner from one cache line
                mesh = np.empty((ng**3, 3), dtype=np.float64)
                for axis, kern in enumerate(self._grad_kernels):
                    mesh[:, axis] = sp_fft.irfftn(
                        factor * kern * dk, s=delta.shape, workers=self.workers
                    ).reshape(ng**3)

            with rec.span("sim.pm.gather"):
                acc = op @ mesh
        self._count_ffts(4)
        rec.counter("pm_force_evals_total").inc()
        return acc

    # -- accounting ------------------------------------------------------------

    def _count_ffts(self, k: int) -> None:
        self.fft_count += k
        get_recorder().counter("pm_fft_total").inc(k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PMSolver ng={self.ng} workers={self.workers} ffts={self.fft_count}>"


# -- per-process solver cache (one engine per (ng, workers)) -------------------

_SOLVER_CACHE: dict[tuple[int, int], PMSolver] = {}


def get_solver(ng: int, workers: int | None = None) -> PMSolver:
    """The shared :class:`PMSolver` for ``(ng, workers)``.

    Caching the solver preserves the precomputed k-grids / Green's
    functions and the CIC operator buffers across force evaluations and
    across callers (simulation loop, Zel'dovich setup, power spectra).
    """
    key = (int(ng), resolve_fft_workers(workers))
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        solver = PMSolver(key[0], workers=key[1])
        _SOLVER_CACHE[key] = solver
    return solver


def clear_solver_cache() -> None:
    """Drop all cached solvers (test isolation / memory reclaim)."""
    _SOLVER_CACHE.clear()
