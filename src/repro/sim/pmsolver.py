"""Fused spectral particle-mesh force engine (the PM hot path).

One force evaluation is ``scatter → 4 FFTs → gather``.  :class:`PMSolver`
runs all three stages off a single sparse cloud-in-cell operator:

* **one CIC operator per evaluation** — a ``scipy.sparse`` CSR matrix
  ``W`` of shape ``(n, ng³)`` with exactly 8 entries per row (the corner
  cell of each particle and its trilinear weight, in the ``(a, b, c) ∈
  {0,1}³`` loop-nest order).  The scatter is ``Wᵀ @ masses`` and the
  gather is ``W @ mesh``, so the two are adjoint by construction — the
  matched scatter/gather pair that makes the PM force conserve momentum.
* **blocked build** — ``W`` is filled :data:`_BLOCK_ROWS` particles at
  a time into reusable ``(n, 8)`` index/weight buffers: per block,
  ``floor``, integer ``%= ng``, and all 8 corners in one broadcast write
  each for indices and weights.  Indices are ``int32`` whenever ``8n``
  and ``ng³`` fit (``int64`` otherwise); positions too large for the
  index type raise instead of wrapping.
* **a single gather** — the three inverse transforms are laid out as one
  ``(ng³, 3)`` mesh, so ``W @ mesh`` reads each corner's three force
  components from one cache line and sums the 8 corners in operator
  order: accelerations are bit-identical for any block size.
* **4 FFTs, never materializing φ** — Poisson (``-1/k²``) and gradient
  (``i·k``) are applied together in k-space to the single forward
  transform of δ:  ``a_k = i k · factor · δ_k / k²``.  One spectral
  helper serves the force and :meth:`PMSolver.inverse_gradient`: one
  ``rfftn``, the three ``(factor · kernel) · δ_k`` products written into
  one ``(3, ng, ng, ng//2+1)`` buffer, and one batched ``irfftn`` over
  its last three axes.
* **box units inside the passes** — given ``cell``,
  :meth:`PMSolver.accelerations` takes box-unit positions and returns
  box-unit accelerations: each fill block divides its own rows by
  ``cell`` into its range's scratch buffer, each gather block multiplies
  its own rows by it.  The caller makes no grid-unit copy and no
  scaling pass.
* **PM threads: every pass of a force** — ``workers`` threads run the
  transforms (``scipy.fft``; pocketfft threads over independent 1-D
  lines), the k-space products (split over k_x planes), the
  planar-to-interleaved copy into the gather's mesh, and every
  row-independent particle pass: the operator fill, the gather, and the
  integrator's kick/drift/wrap (:meth:`PMSolver.for_blocks`, which
  splits the blocks into ``workers`` contiguous ranges).  Only the
  scatter ``Wᵀ @ m``, which sums over particles, stays on the caller
  alone.  Each element is computed by the same operations in the same
  order, so every result is bit-identical for any worker count.

The function-at-a-time 6-FFT chain this engine replaced lives on as the
test oracle ``tests/oracles/pm_reference.py``.

Purity contract: no wall-clock reads in this module (rule RPR003 covers
it); timing is spans, whose clock lives in ``repro.obs`` where it
belongs.  Every stage of :meth:`PMSolver.accelerations` sits under one
of the spans ``sim.pm.deposit`` (operator build + scatter),
``sim.pm.fft`` (transforms, k-space products, interleave) or
``sim.pm.gather``, opened on the calling thread, which waits for the
pool's ranges inside it.  The standalone :meth:`deposit` /
:meth:`inverse_gradient` / :meth:`potential` open no span: their time
belongs to the caller's (an in-situ power spectrum, a streamed chunk,
the initial conditions).
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

import numpy as np
from scipy import fft as sp_fft
from scipy import sparse

from ..check.sanitize import guard_kernel
from ..obs import get_recorder

__all__ = ["PMSolver", "get_solver", "clear_solver_cache", "resolve_fft_workers"]

#: Cap on auto-detected PM threads: beyond this the per-transform lines
#: are too short for threading to pay at mini-HACC mesh sizes.
_MAX_AUTO_WORKERS = 8

#: Particle rows per block of every particle pass (operator fill, gather,
#: kick/drift/wrap).  Short blocks keep a block's temporaries cache-resident
#: but hand the GIL over on every ufunc call, which stalls a second thread
#: (measured at 1 and 2 workers: EXPERIMENTS.md, "PM force engine").
#: Results do not depend on it.
_BLOCK_ROWS = 16384


#: Held around every transform here and, through the at-fork hooks below,
#: across every ``os.fork`` in the process.  pocketfft stops its thread
#: pool for the length of a fork, and a transform another thread submits
#: in that window raises "Work item submitted after shutdown" (a rank
#: world or exec pool forked beside the solver).
_FFT_FORK_LOCK = threading.Lock()

os.register_at_fork(
    before=_FFT_FORK_LOCK.acquire,
    after_in_parent=_FFT_FORK_LOCK.release,
    after_in_child=_FFT_FORK_LOCK.release,
)


def resolve_fft_workers(workers: int | None = None) -> int:
    """Resolve the PM thread count: the FFTs and the particle passes.

    Explicit ``workers`` wins; else the ``REPRO_PM_WORKERS`` environment
    variable; else the CPUs this process may run on
    (:func:`repro.exec.default_workers`), capped at ``8``.  Always ≥ 1.
    Every result is bit-identical for any value, so this is purely a
    throughput knob.
    """
    if workers is None:
        env = os.environ.get("REPRO_PM_WORKERS", "").strip()
        if env:
            workers = int(env)
        else:
            # imported here: repro.exec imports the analysis layer, which imports this module
            from ..exec.engine import default_workers

            workers = min(default_workers(), _MAX_AUTO_WORKERS)
    return max(int(workers), 1)


def _row_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """``n`` rows as at most ``parts`` contiguous ranges of whole blocks."""
    blocks = -(-n // _BLOCK_ROWS)
    parts = max(min(parts, blocks), 1)
    edges = [min(blocks * k // parts * _BLOCK_ROWS, n) for k in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _row_view(op: sparse.csr_matrix, lo: int, hi: int) -> sparse.csr_matrix:
    """Rows ``lo:hi`` of the 8-per-row operator, sharing its buffers.

    Not ``csr_matrix((data[a:b], indices[a:b], indptr))``: that
    constructor's format check prunes, i.e. silently *copies*, any view
    much smaller than its base, and the gather would then read a stale
    copy after the next in-place refill.  The arrays are assigned to an
    empty matrix instead, which checks nothing.
    """
    view = sparse.csr_matrix((hi - lo, op.shape[1]), dtype=op.dtype)
    view.data = op.data[8 * lo : 8 * hi]
    view.indices = op.indices[8 * lo : 8 * hi]
    view.indptr = op.indptr[: hi - lo + 1]  # arange(0, 8n + 1, 8)
    for name in ("data", "indices", "indptr"):
        if not np.shares_memory(getattr(view, name), getattr(op, name)):
            raise RuntimeError(f"operator row view copied its {name}")
    return view


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
        PM threads: the FFTs and the particle passes (see
        :func:`resolve_fft_workers`).

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
        #: the operator's blocks as CSR matrices over its buffers, keyed
        #: by ``(first, last + 1)`` row (see :meth:`_gather`)
        self._row_views: dict[tuple[int, int], sparse.csr_matrix] = {}
        #: held while the operator is filled and used: a cached solver is
        #: shared by the simulation loop and by power-spectrum deposits,
        #: which the pipelined in-situ manager runs on a worker thread
        self._op_lock = threading.Lock()
        #: the threads that walk the particle-pass ranges after the first
        #: (created on the first pass that splits; see :meth:`for_blocks`)
        self._threads: ThreadPoolExecutor | None = None

    # -- the CIC operator (scatter is Wᵀ, gather is W) -------------------------

    def _operator(self, pos: np.ndarray, cell: float | None = None) -> sparse.csr_matrix:
        """Fill and return the ``(n, ng³)`` CIC operator for ``pos``.

        Row ``i`` holds particle ``i``'s 8 corner cells (flattened mesh
        index) and trilinear weights, corners in ``(a, b, c) ∈ {0,1}³``
        loop-nest order with weight ``(wx·wy)·wz``.  Any finite position
        is folded into the periodic mesh by the integer ``%= ng``.  The
        rows are filled block by block on the PM threads.  With ``cell``
        the positions are in box units: each block divides its own rows
        by ``cell`` into its range's scratch buffer first.
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
            self._row_views = {}
        op = self._op
        itype = op.indices.dtype
        # corner (a, b, c) ∈ {0,1}³ of row i is column 4a + 2b + c: a
        # (4, 2, n) view puts the 8 corners of a block on its leading axes
        idx = op.indices.reshape(n, 4, 2).transpose(1, 2, 0)
        wts = op.data.reshape(n, 4, 2).transpose(1, 2, 0)
        mesh_strides = np.array([ng * ng, ng, 1], dtype=itype).reshape(3, 1, 1)

        def fill(block: slice, scratch: np.ndarray) -> None:
            x = pos[block] if cell is None else np.divide(pos[block], cell, out=scratch)
            x = x.T  # (3, rows)
            rows = x.shape[1]
            # [axis, upper?, row]: the lower and upper corner of each axis
            w = np.empty((3, 2, rows), dtype=np.float64)
            i = np.empty((3, 2, rows), dtype=itype)
            # a float → int cast that does not fit sets the FP invalid flag:
            # raise on it rather than deposit into a wrapped-around cell
            # (the FP mode is per thread, so every block enters it)
            with np.errstate(invalid="raise"):
                np.floor(x, out=w[:, 0])
                np.copyto(i[:, 0], w[:, 0], casting="unsafe")
            np.subtract(x, w[:, 0], out=w[:, 1])  # weight of the upper corner
            np.subtract(1.0, w[:, 1], out=w[:, 0])  # ... and of the lower
            i[:, 0] %= ng
            np.add(i[:, 0], 1, out=i[:, 1])
            i[:, 1][i[:, 1] == ng] = 0
            i *= mesh_strides
            # (ix[a] + iy[b]) + iz[c] and (wx[a]·wy[b])·wz[c], all 8 corners
            ixy = (i[0][:, None] + i[1][None]).reshape(4, 1, rows)
            wxy = (w[0][:, None] * w[1][None]).reshape(4, 1, rows)
            np.add(ixy, i[2][None], out=idx[:, :, block])
            np.multiply(wxy, w[2][None], out=wts[:, :, block])

        self.for_blocks(n, fill)
        return op

    def _gather(self, mesh: np.ndarray, cell: float | None = None) -> np.ndarray:
        """``W @ mesh`` (times ``cell``, if given) → ``(n, 3)`` for the operator last filled.

        Runs block by block on the PM threads, each block's product
        written into its rows of one caller-allocated array.  A block is
        a CSR matrix over its rows of the operator's own buffers
        (:func:`_row_view`, made once per buffer allocation and block),
        so it sums each row's 8 corners in operator order: the result is
        bit-identical to ``W @ mesh``.
        """
        op = self._op
        n = op.shape[0]
        views = self._row_views
        for start in range(0, n, _BLOCK_ROWS):
            rows = (start, min(start + _BLOCK_ROWS, n))
            if rows not in views:
                views[rows] = _row_view(op, *rows)
        acc = np.empty((n, 3), dtype=np.float64)

        def gather(block: slice, _scratch: np.ndarray) -> None:
            rows = views[block.start, block.stop] @ mesh
            if cell is None:
                acc[block] = rows
            else:
                np.multiply(rows, cell, out=acc[block])

        self.for_blocks(n, gather)
        return acc

    # -- the row-parallel particle passes --------------------------------------

    def for_blocks(self, n: int, fn: Callable[[slice, np.ndarray], None]) -> None:
        """Call ``fn(rows, scratch)`` once for every :data:`_BLOCK_ROWS` block of ``n`` rows.

        The blocks are split into at most :attr:`workers` contiguous
        ranges; the caller walks the first, the solver's kept thread pool
        the others.  ``fn`` must touch only its own rows, so each row is
        computed by the same operations in the same order at any worker
        count.  ``scratch`` is a ``(block rows, 3)`` float64 buffer that
        belongs to the block's range; it is allocated here, on the
        caller, so a pool thread need not allocate (its glibc arena
        would keep the high-water mark).  Returns once every block is
        done; an error raised in any range is re-raised here.
        """
        ranges = _row_ranges(n, self.workers)
        scratch = np.empty((len(ranges), min(n, _BLOCK_ROWS), 3), dtype=np.float64)

        def walk(k: int) -> None:
            lo, hi = ranges[k]
            for start in range(lo, hi, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, hi)
                fn(slice(start, stop), scratch[k, : stop - start])

        self._on_threads(len(ranges), walk)

    def _on_threads(self, parts: int, walk: Callable[[int], None]) -> None:
        """Call ``walk(k)`` for ``k < parts``: ``0`` on the caller, the rest on the pool.

        Returns once every part is done; an error raised in any part is
        re-raised here.
        """
        if parts > 1:
            pool = self._pool()
            pending = [pool.submit(walk, k) for k in range(1, parts)]
        else:
            pending = []
        try:
            walk(0)
        finally:
            wait(pending)  # no part outlives the call, even on an error
        for future in pending:
            future.result()

    def _pool(self) -> ThreadPoolExecutor:
        with _LOCK:
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    self.workers - 1, thread_name_prefix="pm-rows"
                )
                _POOLED.add(self)
            return self._threads

    def _drop_pool(self) -> None:
        threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=True)

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
        with _FFT_FORK_LOCK:
            dk = sp_fft.rfftn(np.asarray(delta, dtype=np.float64), workers=self.workers)
        phik = -factor * self._inv_k2 * dk
        with _FFT_FORK_LOCK:
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
        return self._spectral(np.asarray(delta, dtype=np.float64), factor)

    def _spectral(self, delta: np.ndarray, factor: float) -> np.ndarray:
        """The planar ``(3, ng, ng, ng)`` field of :meth:`inverse_gradient`.

        One forward transform; the three ``(factor · kernel) · δ_k``
        products into one ``(3, ng, ng, ng//2+1)`` buffer, split over
        k_x planes on the PM threads; one batched inverse transform over
        it.  ``δ_k`` is released before the inverse allocates its output.
        """
        with _FFT_FORK_LOCK:
            dk = sp_fft.rfftn(delta, workers=self.workers)
        ak = np.empty((3, *dk.shape), dtype=np.complex128)
        parts = min(self.workers, len(dk))
        planes = [len(dk) * k // parts for k in range(parts + 1)]

        def products(k: int) -> None:
            lo, hi = planes[k], planes[k + 1]
            for axis, kern in enumerate(self._grad_kernels):
                out = ak[axis, lo:hi]
                np.multiply(factor, kern[lo:hi], out=out)
                out *= dk[lo:hi]

        self._on_threads(parts, products)
        del dk
        with _FFT_FORK_LOCK:
            out = sp_fft.irfftn(
                ak, s=delta.shape, axes=(1, 2, 3), workers=self.workers, overwrite_x=True
            )
        self._count_ffts(4)
        return out

    @guard_kernel(name="PMSolver.accelerations")
    def accelerations(
        self,
        pos_grid: np.ndarray,
        factor: float,
        weights: np.ndarray | None = None,
        cell: float | None = None,
    ) -> np.ndarray:
        """One fused PM force evaluation: scatter → k-space → gather.

        Returns per-particle accelerations ``-∇φ`` in grid units for
        ``∇²φ = factor·δ``; numerically equivalent to the oracle
        ``cic_deposit → solve_poisson → gradient_spectral →
        cic_interpolate`` chain (rtol ≲ 1e-12) at 4 FFTs instead of 6
        and one CIC operator shared by scatter and gather.  With
        ``cell`` (the mesh cell size) positions are taken and
        accelerations returned in box units: bit for bit
        ``accelerations(pos / cell, factor) * cell``, with both unit
        changes done per block inside the particle passes.
        """
        pos = np.atleast_2d(np.asarray(pos_grid, dtype=np.float64))
        if len(pos) == 0:
            return np.zeros((0, 3), dtype=np.float64)
        ng = self.ng
        rec = get_recorder()

        with self._op_lock:
            with rec.span("sim.pm.deposit"):
                op = self._operator(pos, cell)
                delta = self._scatter(op, weights, normalize=True)

            with rec.span("sim.pm.fft"):
                planar = self._spectral(delta, factor).reshape(3, ng**3)
                # the three force components of a cell side by side, so
                # the gather reads each corner from one cache line
                mesh = np.empty((ng**3, 3), dtype=np.float64)

                def interleave(block: slice, _scratch: np.ndarray) -> None:
                    mesh[block] = planar[:, block].T

                self.for_blocks(ng**3, interleave)
                del planar

            with rec.span("sim.pm.gather"):
                acc = self._gather(mesh, cell)
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
#: guards the cache and every solver's pool creation
_LOCK = threading.Lock()
#: solvers that own a pool, so a forked child can forget the parent's threads
_POOLED: weakref.WeakSet[PMSolver] = weakref.WeakSet()


def get_solver(ng: int, workers: int | None = None) -> PMSolver:
    """The shared :class:`PMSolver` for ``(ng, workers)``.

    Caching the solver preserves the precomputed k-grids / Green's
    functions and the CIC operator buffers across force evaluations and
    across callers (simulation loop, Zel'dovich setup, power spectra).
    """
    key = (int(ng), resolve_fft_workers(workers))
    with _LOCK:
        solver = _SOLVER_CACHE.get(key)
        if solver is None:
            solver = _SOLVER_CACHE[key] = PMSolver(key[0], workers=key[1])
    return solver


def clear_solver_cache() -> None:
    """Drop all cached solvers and stop their threads (test isolation / memory reclaim)."""
    with _LOCK:
        solvers = list(_SOLVER_CACHE.values())
        _SOLVER_CACHE.clear()
    for solver in solvers:
        solver._drop_pool()


def _forget_pools_in_child() -> None:
    """A forked child has none of its parent's pool threads: start afresh."""
    global _LOCK
    _LOCK = threading.Lock()
    for solver in list(_POOLED):
        solver._threads = None
    _POOLED.clear()


os.register_at_fork(after_in_child=_forget_pools_in_child)
