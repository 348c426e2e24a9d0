"""Domain decomposition: factorization, geometry, ownership (+ properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import CartesianDecomposition, factor_dims


@pytest.mark.parametrize(
    "n,expected",
    [(1, (1, 1, 1)), (2, (2, 1, 1)), (8, (2, 2, 2)), (12, (3, 2, 2)), (32, (4, 4, 2)), (27, (3, 3, 3))],
)
def test_factor_dims_known_cases(n, expected):
    assert factor_dims(n) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 512))
def test_prop_factor_dims_product(n):
    dims = factor_dims(n)
    assert len(dims) == 3
    assert int(np.prod(dims)) == n
    assert list(dims) == sorted(dims, reverse=True)


def test_factor_dims_invalid():
    with pytest.raises(ValueError):
        factor_dims(0)


def test_rank_coords_roundtrip():
    d = CartesianDecomposition.for_ranks(10.0, 12)
    for r in range(d.nranks):
        assert d.rank_of_coords(*d.coords_of_rank(r)) == r


def test_coords_out_of_range_raises():
    d = CartesianDecomposition.for_ranks(10.0, 8)
    with pytest.raises(ValueError):
        d.coords_of_rank(8)


def test_bounds_tile_the_box():
    d = CartesianDecomposition.for_ranks(30.0, 8)
    total_volume = 0.0
    for r in range(8):
        lo, hi = d.bounds(r)
        total_volume += np.prod(hi - lo)
    assert np.isclose(total_volume, 30.0**3)


def test_ownership_consistent_with_bounds(rng):
    d = CartesianDecomposition.for_ranks(100.0, 32)
    pos = rng.uniform(0, 100, (2000, 3))
    owners = d.rank_of_position(pos)
    for r in range(32):
        mask = d.contains(r, pos)
        assert np.all(owners[mask] == r)
        assert np.all(owners[~mask] != r)


def test_positions_outside_box_are_wrapped():
    d = CartesianDecomposition.for_ranks(10.0, 8)
    assert d.rank_of_position(np.asarray([[11.0, 1.0, 1.0]]))[0] == d.rank_of_position(
        np.asarray([[1.0, 1.0, 1.0]])
    )[0]


def test_wrapping_only_outside_rows_changes_no_owner(rng):
    """Rows inside ``[0, box)`` skip the wrap; every owner is what the
    wrap of every row gives."""
    d = CartesianDecomposition.for_ranks(10.0, 12)
    inside = np.concatenate(
        [rng.uniform(0, 10, (300, 3)), [[0.0, -0.0, np.nextafter(10.0, 0)], [5.0, 0.0, 9.99]]]
    )
    outside = rng.uniform(-25, 35, (300, 3))
    for pos in (inside, outside, np.concatenate([inside, outside]), inside[:1]):
        idx = np.floor(np.mod(pos, d.box) / d.cell_sizes).astype(np.intp)
        idx = np.clip(idx, 0, np.asarray(d.dims) - 1)
        want = (idx[:, 0] * d.dims[1] + idx[:, 1]) * d.dims[2] + idx[:, 2]
        assert np.array_equal(d.rank_of_position(pos), want)
    assert d.rank_of_position(np.empty((0, 3))).shape == (0,)


def test_every_position_has_exactly_one_owner(rng):
    d = CartesianDecomposition.for_ranks(50.0, 12)
    pos = rng.uniform(-50, 100, (500, 3))  # includes out-of-box values
    owners = d.rank_of_position(pos)
    assert owners.min() >= 0 and owners.max() < 12


def test_neighbor_ranks_symmetry():
    d = CartesianDecomposition.for_ranks(10.0, 8)
    for r in range(8):
        for nb in d.neighbor_ranks(r):
            assert r in d.neighbor_ranks(nb)


def test_neighbor_count_small_grid():
    # 2x2x2 periodic grid: every other rank is a neighbor
    d = CartesianDecomposition.for_ranks(10.0, 8)
    assert len(d.neighbor_ranks(0)) == 7


def test_neighbor_count_large_grid():
    d = CartesianDecomposition(box=10.0, dims=(4, 4, 4))
    assert len(d.neighbor_ranks(0)) == 26


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 64),
    x=st.floats(0, 99.999),
    y=st.floats(0, 99.999),
    z=st.floats(0, 99.999),
)
def test_prop_owner_bounds_contain_position(n, x, y, z):
    d = CartesianDecomposition.for_ranks(100.0, n)
    p = np.asarray([[x, y, z]])
    r = int(d.rank_of_position(p)[0])
    lo, hi = d.bounds(r)
    assert np.all(p[0] >= lo - 1e-9) and np.all(p[0] < hi + 1e-9)
