#!/usr/bin/env python
"""The MBP center finder on one Plummer halo, against its per-element oracle.

The compute-intensive analysis the combined workflow off-loads is the
O(n²) most-bound-particle (MBP) potential (paper §3.3.2).  This example
runs, on one dense halo:

* brute force — every pair, through the one compiled pair kernel
  (``scipy.spatial.distance.cdist`` in row blocks), which stands in for
  the paper's PISTON/GPU kernel;
* the per-element Python double loop the kernel is cross-validated
  against (``tests/oracles/centers_reference.py``), on a sub-halo, as
  an interpreted-CPU reference point.

It prints the finder's center, pair-op count and time, and both
per-pair-op costs.  The serial A* search of Ref. [10] is not here: it
did about the same pair work as brute force and ran 4-5x slower
(EXPERIMENTS.md).  PISTON's CPU/GPU portability is not reproduced, and
no GPU speed-up is measured: the facility cost model's GPU-over-CPU
factor is the paper's constant
(``repro.machines.cost.CostModel.gpu_cpu_factor`` = 50).

Usage (from a checkout: the oracle lives under ``tests/``)::

    python examples/center_finders.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.analysis import mbp_center_bruteforce, potential_bruteforce  # noqa: E402
from repro.machines.cost import PAPER_CALIBRATION  # noqa: E402
from tests.oracles.centers_reference import potential_reference  # noqa: E402


def plummer_halo(n: int, seed: int = 7) -> np.ndarray:
    """Sample a Plummer-profile halo (a realistic dense structure)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.001, 0.999, n)
    r = 1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return r[:, None] * v + 10.0


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    halo = plummer_halo(1500)
    n = len(halo)
    print(f"halo: {n} particles (Plummer profile)\n")

    (idx, phi, brute), dt = timed(lambda: mbp_center_bruteforce(halo))
    print(f"brute force (pair kernel): center particle {idx:5d}  phi={phi:10.2f}  "
          f"{dt * 1e3:8.1f} ms  pair-ops {brute.pair_evaluations:>12,}")

    sub = halo[:300]
    m = len(sub)
    ref, t_ref = timed(lambda: potential_reference(sub))
    fast, t_fast = timed(lambda: potential_bruteforce(sub))
    assert np.allclose(ref, fast, rtol=1e-12), "pair kernel disagrees with the oracle"
    ns_ref, ns_fast = (dt / (m * (m - 1)) * 1e9 for dt in (t_ref, t_fast))
    print(f"\nsub-halo of {m}: per-element Python oracle {ns_ref:8.1f} ns/pair-op, "
          f"pair kernel {ns_fast:6.2f} ns/pair-op (same potentials)")
    print(f"cost model GPU/CPU factor: {PAPER_CALIBRATION.gpu_cpu_factor:.0f}x "
          f"(the paper's constant, not measured here)")


if __name__ == "__main__":
    main()
