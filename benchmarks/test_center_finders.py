"""§3.3.2 micro-results: the brute-force center finder and its pair kernel.

Paper claims exercised here:

* the PISTON/GPU brute-force center finder is ~50x faster than the
  serial CPU path — not measured: the cost model's ``gpu_cpu_factor``
  is the paper's constant.  What is timed is the per-element Python
  oracle against the compiled pair kernel that stands in for the GPU
  kernel;
* the serial A* search's "problem-dependent factor of roughly eight"
  less work than brute force is not reproduced: measured, it did about
  the same pair work and ran 4-5x slower, so it was removed
  (EXPERIMENTS.md, §3.3.2 row);
* cost scales as n², so "a halo with 10 million particles can take
  10,000 times longer than for a halo with 100,000 particles".
"""

import numpy as np
import pytest

from repro.analysis import (
    center_finding_cost,
    mbp_center_bruteforce,
    potential_bruteforce,
)
from tests.oracles.centers_reference import potential_reference  # run pytest from the repo root

from conftest import bench_rng, save_result


def _plummer(rng, n):
    u = rng.uniform(0.001, 0.999, n)
    r = 1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return r[:, None] * v + 10.0


@pytest.fixture(scope="module")
def halo(bench_rng):
    return _plummer(bench_rng, 2000)


def test_bruteforce(benchmark, halo):
    idx, phi, _ = benchmark(mbp_center_bruteforce, halo)
    assert phi < 0


def test_per_element_oracle(benchmark, halo):
    """The per-element Python loop (``tests.oracles.centers_reference``):
    orders of magnitude slower than the pair kernel."""
    small = halo[:300]
    benchmark.pedantic(potential_reference, args=(small,), rounds=2, iterations=1)


def test_oracle_vs_pair_kernel_ratio(benchmark, halo, cost):
    """Per-element Python oracle vs compiled pair kernel.  Not the paper's
    'approximately a factor of fifty speed-up' on Titan's GPUs: that
    factor is a constant of the cost model, reported beside the ratio."""
    import time

    small = halo[:400]
    t0 = time.perf_counter()
    potential_reference(small)
    t_oracle = time.perf_counter() - t0
    benchmark.pedantic(mbp_center_bruteforce, args=(small,), rounds=1, iterations=1)
    t0 = time.perf_counter()
    potential_bruteforce(small)
    t_kernel = time.perf_counter() - t0
    ratio = t_oracle / t_kernel
    save_result(
        "center_oracle_ratio",
        f"per-element Python oracle / compiled pair kernel time ratio at n=400: "
        f"{ratio:.0f}x (measured); the cost model's GPU/CPU factor "
        f"{cost.gpu_cpu_factor:.0f}x is the paper's constant, not a measured ratio",
    )
    assert ratio > 5.0


def test_quadratic_cost_claim(benchmark):
    """10M vs 100k particle halos: exactly 10,000x the pair work."""
    costs = benchmark(center_finding_cost, np.asarray([100_000, 10_000_000]))
    assert costs[1] / costs[0] == pytest.approx(10_000, rel=0.01)


def test_imbalance_factor_measured(benchmark, measured_profile, cost):
    """§4.2: in the 1024³ test 'the imbalance between the fastest and
    the slowest node is a factor of 15'.  Our measured mini run shows
    the same few-to-tens factor across its ranks."""
    node = benchmark(measured_profile.node_pairs)
    imbalance = node.max() / max(node[node > 0].min(), 1.0)
    save_result(
        "center_imbalance",
        f"measured per-rank center-work imbalance: {imbalance:.1f}x "
        f"(paper test problem: 15x)",
    )
    assert imbalance > 2.0
