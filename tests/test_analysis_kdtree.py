"""Balanced k-d tree: structure, radius queries, kNN (vs brute force)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import KDTree


def test_empty_tree():
    tree = KDTree(np.empty((0, 3)))
    assert tree.n_nodes == 0
    assert len(tree.query_radius(np.zeros(3), 1.0)) == 0


def test_single_point():
    tree = KDTree(np.asarray([[1.0, 2.0, 3.0]]))
    assert tree.n_nodes == 1
    assert tree.nodes[0].is_leaf


def test_balanced_depth(rng):
    pts = rng.uniform(0, 1, (1024, 3))
    tree = KDTree(pts, leaf_size=1)
    # perfectly balanced: depth == log2(1024) = 10 (allow +1 slack)
    assert tree.depth() <= 11


def test_leaf_size_respected(rng):
    pts = rng.uniform(0, 1, (200, 3))
    tree = KDTree(pts, leaf_size=8)
    for node in tree.nodes:
        if node.is_leaf:
            assert node.count <= 8


def test_index_is_permutation(rng):
    pts = rng.uniform(0, 1, (100, 3))
    tree = KDTree(pts)
    assert np.array_equal(np.sort(tree.index), np.arange(100))


def test_bounding_boxes_contain_points(rng):
    pts = rng.uniform(0, 1, (300, 3))
    tree = KDTree(pts, leaf_size=4)
    for node in tree.nodes:
        covered = pts[tree.index[node.start : node.end]]
        assert np.all(covered >= node.lo - 1e-12)
        assert np.all(covered <= node.hi + 1e-12)


def test_query_radius_matches_brute_force(rng):
    pts = rng.uniform(0, 10, (500, 3))
    tree = KDTree(pts, leaf_size=8)
    for _ in range(10):
        center = rng.uniform(0, 10, 3)
        r = rng.uniform(0.5, 3.0)
        got = np.sort(tree.query_radius(center, r))
        expect = np.flatnonzero(np.sum((pts - center) ** 2, axis=1) <= r * r)
        assert np.array_equal(got, expect)


def test_query_knn_matches_brute_force(rng):
    pts = rng.uniform(0, 10, (400, 3))
    tree = KDTree(pts, leaf_size=8)
    for _ in range(10):
        center = rng.uniform(0, 10, 3)
        idx, dist = tree.query_knn(center, 7)
        d_all = np.sqrt(np.sum((pts - center) ** 2, axis=1))
        expect = np.sort(d_all)[:7]
        assert np.allclose(np.sort(dist), expect)
        assert np.all(np.diff(dist) >= -1e-12)  # ascending


def test_query_knn_k_clamped(rng):
    pts = rng.uniform(0, 1, (5, 3))
    tree = KDTree(pts)
    idx, dist = tree.query_knn(np.zeros(3), 10)
    assert len(idx) == 5


def test_query_knn_invalid_k():
    tree = KDTree(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tree.query_knn(np.zeros(3), 0)


def test_invalid_leaf_size():
    with pytest.raises(ValueError):
        KDTree(np.zeros((3, 3)), leaf_size=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 120),
    k=st.integers(1, 8),
)
def test_prop_knn_distances_are_k_smallest(seed, n, k):
    local = np.random.default_rng(seed)
    pts = local.uniform(0, 5, (n, 3))
    tree = KDTree(pts, leaf_size=4)
    center = local.uniform(0, 5, 3)
    k = min(k, n)
    _, dist = tree.query_knn(center, k)
    d_all = np.sort(np.sqrt(np.sum((pts - center) ** 2, axis=1)))
    assert np.allclose(np.sort(dist), d_all[:k])
