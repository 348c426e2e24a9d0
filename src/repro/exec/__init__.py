"""Work-stealing execution engine for per-halo analysis.

The paper's per-halo kernels (MBP center finding, subhalo finding) have
n(n-1) cost over a brutally skewed halo-mass distribution, so *work
placement* — not raw FLOPs — decides wall-clock (§3.3.2, Figure 4).
This package is the one executor under every per-halo batch, in-situ
and off-line:

- :class:`HaloWorkQueue` — cost-model-guided LPT item list with halo
  splitting and small-halo chunking; workers claim it through one cursor
- :class:`ExecutionEngine` — runs a queue's one job function inline on
  the calling thread (one worker) or on every worker of the shared
  process pool, with full :mod:`repro.obs` instrumentation (per-worker
  spans, load-imbalance gauge, steal counter, per-item dispatch
  overhead on each span)
- :class:`SharedParticleStore` — zero-copy shared-memory particle arrays
  for the pooled runs
- :class:`~repro.exec.supervisor.ProcessGroup` — the one process
  supervisor (fork, liveness, abort, reap) under the worker pool and the
  process SPMD ranks
- :func:`parallel_halo_centers` / :func:`parallel_subhalos` — the batch
  drivers; results are bit-identical at every worker count
"""

from .engine import (
    ExecReport,
    ExecutionEngine,
    ItemRecord,
    SubhaloBatchResult,
    WorkerError,
    default_workers,
    parallel_halo_centers,
    parallel_subhalos,
    shutdown_pool,
)
from .sharedmem import SharedParticleStore
from .workqueue import HaloWorkQueue, WorkItem

__all__ = [
    "ExecReport",
    "ExecutionEngine",
    "HaloWorkQueue",
    "ItemRecord",
    "SharedParticleStore",
    "SubhaloBatchResult",
    "WorkItem",
    "WorkerError",
    "default_workers",
    "parallel_halo_centers",
    "parallel_subhalos",
    "shutdown_pool",
]
