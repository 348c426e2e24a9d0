"""Balanced k-d tree: the node structure the serial FOF oracle walks."""

import numpy as np
import pytest

from tests.oracles.kdtree import KDTree


def test_empty_tree():
    tree = KDTree(np.empty((0, 3)))
    assert tree.n_nodes == 0
    assert tree.depth() == -1


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


def test_invalid_leaf_size():
    with pytest.raises(ValueError):
        KDTree(np.zeros((3, 3)), leaf_size=0)
