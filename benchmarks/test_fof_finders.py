"""Halo finder benchmarks: the serial finder and its parallel scaling.

The paper's FOF is "efficiently parallelizable" (Table 2 shows max/min
find ratios near 1).  These benches measure our implementations and the
overload-region ablation (DESIGN.md #4): a too-small overload width
breaks halo completeness.
"""

import numpy as np
import pytest

from repro.analysis import fof_grid, parallel_fof
from repro.parallel import CartesianDecomposition, run_spmd

from conftest import save_result


@pytest.fixture(scope="module")
def particle_set(bench_sim):
    sim, _ = bench_sim
    return np.asarray(sim.particles.pos, dtype=float), sim.config.box


def test_fof_grid(benchmark, particle_set):
    pos, box = particle_set
    ll = 0.2 * box / 32
    result = benchmark(fof_grid, pos, ll, min_count=40, box=box)
    assert result.n_halos > 0


@pytest.mark.parametrize("nranks", [2, 4, 8])
def test_parallel_fof_ranks(benchmark, particle_set, nranks):
    pos, box = particle_set
    ll = 0.2 * box / 32
    tags = np.arange(len(pos))

    def run():
        def prog(comm):
            decomp = CartesianDecomposition.for_ranks(box, comm.size)
            owners = decomp.rank_of_position(pos)
            mine = owners == comm.rank
            return parallel_fof(
                comm, decomp, pos[mine], tags[mine], ll,
                overload_width=8 * ll, min_count=40,
            )

        results = run_spmd(nranks, prog)
        return {t: m for r in results for t, m in r.items()}

    halos = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = fof_grid(pos, ll, tags=tags, min_count=40, box=box)
    assert len(halos) == serial.n_halos


def test_overload_width_ablation(particle_set, benchmark):
    """Too-small overload widths lose halo completeness: halos straddling
    rank boundaries come out truncated or duplicated."""
    pos, box = particle_set
    ll = 0.2 * box / 32
    tags = np.arange(len(pos))
    serial = fof_grid(pos, ll, tags=tags, min_count=40, box=box)
    total_serial = int(serial.halo_counts.sum())

    def total_with_width(width):
        def prog(comm):
            decomp = CartesianDecomposition.for_ranks(box, comm.size)
            owners = decomp.rank_of_position(pos)
            mine = owners == comm.rank
            return parallel_fof(
                comm, decomp, pos[mine], tags[mine], ll,
                overload_width=width, min_count=40,
            )

        results = run_spmd(8, prog)
        return sum(len(m) for r in results for m in r.values())

    good = benchmark.pedantic(total_with_width, args=(8 * ll,), rounds=1, iterations=1)
    bad = total_with_width(0.25 * ll)
    save_result(
        "ablation_overload",
        f"parallel FOF particle totals: serial {total_serial}, "
        f"overload 8ll -> {good}, overload 0.25ll -> {bad} "
        f"(insufficient width loses/duplicates members)",
    )
    assert good == total_serial
    assert bad != total_serial
