"""Overload (ghost) region construction: coverage and periodic shifts."""

import itertools

import numpy as np
import pytest

from repro.parallel import CartesianDecomposition, overload_destinations, select_overload


@pytest.fixture
def decomp():
    return CartesianDecomposition.for_ranks(100.0, 8)  # 2x2x2 grid, 50-cells


def _rank_points(decomp, rank, n, rng):
    lo, hi = decomp.bounds(rank)
    return rng.uniform(lo, hi, (n, 3))


def test_interior_particles_not_replicated(decomp, rng):
    lo, hi = decomp.bounds(0)
    center = 0.5 * (lo + hi)
    pts = rng.uniform(center - 5, center + 5, (100, 3))  # deep interior
    plan = overload_destinations(decomp, 0, pts, width=2.0)
    assert plan == {}


def test_boundary_particles_go_to_face_neighbor(decomp):
    lo, hi = decomp.bounds(0)
    # single particle near the +x face of rank 0
    p = np.asarray([[hi[0] - 0.5, (lo[1] + hi[1]) / 2, (lo[2] + hi[2]) / 2]])
    plan = overload_destinations(decomp, 0, p, width=2.0)
    face_rank = decomp.rank_of_coords(1, 0, 0)
    assert face_rank in plan
    idx, shift = plan[face_rank]
    assert np.array_equal(idx, [0])


def test_corner_particle_replicated_to_many(decomp):
    lo, hi = decomp.bounds(0)
    p = np.asarray([hi - 0.1])  # near the +++ corner
    plan = overload_destinations(decomp, 0, p, width=2.0)
    # on a 2x2x2 periodic grid the 7 other ranks are all corner-adjacent
    assert len(plan) == 7


def test_periodic_shift_applied_across_box_edge(decomp):
    lo, hi = decomp.bounds(0)
    p = np.asarray([[lo[0] + 0.1, lo[1] + 10, lo[2] + 10]])  # near x=0 edge
    plan = overload_destinations(decomp, 0, p, width=2.0)
    neighbor = decomp.rank_of_coords(-1, 0, 0)
    assert neighbor in plan
    shifted = select_overload(p, plan, neighbor)
    # the receiving (wrapped, high-x) rank's frame ends at x=box: the
    # ghost must appear just above box, adjacent to its high face
    assert shifted[0, 0] == pytest.approx(p[0, 0] + 100.0)


def test_width_zero_replicates_nothing(decomp, rng):
    pts = _rank_points(decomp, 0, 200, rng)
    assert overload_destinations(decomp, 0, pts, width=0.0) == {}


def test_negative_width_raises(decomp):
    with pytest.raises(ValueError):
        overload_destinations(decomp, 0, np.zeros((1, 3)), width=-1.0)


def test_excessive_width_raises(decomp):
    with pytest.raises(ValueError, match="too large"):
        overload_destinations(decomp, 0, np.zeros((1, 3)), width=30.0)


def test_ghost_coverage_complete(rng):
    """Every particle within `width` of a rank's sub-box must be visible
    to that rank after the exchange — the property FOF correctness
    rests on."""
    box = 60.0
    width = 3.0
    decomp = CartesianDecomposition.for_ranks(box, 8)
    pos = rng.uniform(0, box, (3000, 3))
    owners = decomp.rank_of_position(pos)

    # build each rank's ghost view
    views = {r: [pos[owners == r]] for r in range(8)}
    for r in range(8):
        mine = pos[owners == r]
        plan = overload_destinations(decomp, r, mine, width)
        for nb in plan:
            views[nb].append(select_overload(mine, plan, nb))

    for r in range(8):
        view = np.concatenate(views[r])
        lo, hi = decomp.bounds(r)
        # particles whose minimum-image distance to the sub-box is < width
        gap = np.maximum(
            np.maximum(lo - pos, 0.0), np.maximum(pos - hi, 0.0)
        )
        # account for periodic images
        gap = np.minimum(gap, box - np.maximum(np.maximum(lo - pos, 0.0), pos - hi))
        near = np.all(gap < width * 0.999, axis=1)
        # every near particle must appear in the view (as owned or ghost)
        for p in pos[near]:
            d = view - p
            d -= box * np.round(d / box)
            assert np.min(np.sum(d * d, axis=1)) < 1e-18


@pytest.mark.parametrize(
    "dims",
    [d for d in itertools.product((1, 2, 3), repeat=3) if d == tuple(sorted(d, reverse=True))]
    + [(1, 2, 3), (1, 1, 2), (2, 1, 2)],  # 1- and 2-wide axes in other positions
)
def test_no_duplicate_rows_in_any_neighbor_plan(dims, rng):
    """Directions that map onto one neighbor (2-wide axes) differ in their
    periodic shift, so a plan is built by plain concatenation — no
    ``(index, shift)`` row may repeat, and every image must be there.  No
    direction steps along a 1-wide axis: the plan holds no self-image and
    no shift along one, and the image count is taken over the split axes."""
    box = 60.0
    decomp = CartesianDecomposition(box=box, dims=dims)
    split = np.asarray(dims) > 1
    pos = rng.uniform(0, box, (1500, 3))
    owners = decomp.rank_of_position(pos)
    width = 4.0
    for rank in range(decomp.nranks):
        mine = pos[owners == rank]
        plan = overload_destinations(decomp, rank, mine, width)
        assert rank not in plan  # no self-image
        n_rows = 0
        for idx, shift in plan.values():
            assert shift.shape == (len(idx), 3)
            assert not shift[:, ~split].any()
            rows = np.column_stack([idx.astype(float), shift])
            assert len(np.unique(rows, axis=0)) == len(rows)
            n_rows += len(rows)
        # one image per direction whose faces (on split axes) the particle is near
        lo, hi = decomp.bounds(rank)
        near = ((mine < lo + width).astype(int) + (mine >= hi - width))[:, split]
        assert n_rows == int(np.sum(np.prod(1 + near, axis=1) - 1))


def _plan_over_every_row(decomp, rank, pos, width):
    """The plan with each direction mask taken over every row; a
    direction that steps along a 1-wide axis is skipped."""
    lo, hi = decomp.bounds(rank)
    coords = np.asarray(decomp.coords_of_rank(rank))
    near = {-1: pos < lo + width, 1: pos >= hi - width}
    parts = {}
    for d in itertools.product((-1, 0, 1), repeat=3):
        if d == (0, 0, 0) or any(step and n == 1 for step, n in zip(d, decomp.dims)):
            continue
        mask = np.ones(len(pos), dtype=bool)
        for axis, step in enumerate(d):
            if step:
                mask &= near[step][:, axis]
        if not mask.any():
            continue
        tgt = coords + d
        shift = np.where(tgt < 0, decomp.box, np.where(tgt >= decomp.dims, -decomp.box, 0.0))
        idx = np.flatnonzero(mask)
        part = parts.setdefault(decomp.rank_of_coords(*tgt), ([], []))
        part[0].append(idx)
        part[1].append(np.broadcast_to(shift, (len(idx), 3)))
    return {nbr: (np.concatenate(i), np.concatenate(s)) for nbr, (i, s) in parts.items()}


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (3, 3, 3)])
def test_plan_equals_the_masks_over_every_row(dims, rng):
    """Masks over the near-face rows of the split axes only give the same
    plan: the same neighbours in the same order, the same ascending
    indices and shifts."""
    box = 60.0
    decomp = CartesianDecomposition(box=box, dims=dims)
    pos = rng.uniform(0, box, (3000, 3))
    owners = decomp.rank_of_position(pos)
    for rank in range(decomp.nranks):
        mine = pos[owners == rank]
        got = overload_destinations(decomp, rank, mine, 4.0)
        want = _plan_over_every_row(decomp, rank, mine, 4.0)
        assert list(got) == list(want)
        for nbr, (idx, shift) in want.items():
            assert got[nbr][0].dtype == idx.dtype
            assert np.array_equal(got[nbr][0], idx)
            assert np.array_equal(got[nbr][1], shift)
