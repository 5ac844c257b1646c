"""Tests for repro.index.rtree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.index.rtree import RTree


def point_items(points):
    return [(Rect(float(x), float(y), float(x), float(y)), i)
            for i, (x, y) in enumerate(points)]


def brute_range(points, query: Rect):
    return sorted(i for i, (x, y) in enumerate(points)
                  if query.contains_point(float(x), float(y)))


@pytest.fixture
def points(rng):
    return rng.random((300, 2))


class TestConstruction:
    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.search(Rect(0, 0, 1, 1)) == []

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_sizes(self, points):
        tree = RTree.bulk_load(point_items(points))
        assert len(tree) == points.shape[0]
        bbox = Rect.from_points(points.tolist())
        assert sorted(tree.search(bbox)) == list(range(points.shape[0]))

    def test_height_grows_logarithmically(self, rng):
        small = RTree.bulk_load(point_items(rng.random((10, 2))),
                                max_entries=4)
        big = RTree.bulk_load(point_items(rng.random((1000, 2))),
                              max_entries=4)
        assert small.height <= big.height <= 8


class TestRangeSearch:
    def test_matches_brute_force_bulk(self, points):
        tree = RTree.bulk_load(point_items(points))
        for query in (Rect(0.1, 0.1, 0.4, 0.5), Rect(0, 0, 1, 1),
                      Rect(0.9, 0.9, 0.95, 0.95), Rect(2, 2, 3, 3)):
            assert sorted(tree.search(query)) == brute_range(points, query)

    def test_search_with_box_items(self, rng):
        boxes = []
        for i in range(100):
            x, y = rng.random(2)
            boxes.append((Rect(float(x), float(y),
                               float(x) + 0.05, float(y) + 0.05), i))
        tree = RTree.bulk_load(boxes)
        query = Rect(0.3, 0.3, 0.5, 0.5)
        expected = sorted(i for rect, i in boxes if rect.intersects(query))
        assert sorted(tree.search(query)) == expected


class TestRTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False)),
        min_size=1, max_size=120),
        st.integers(min_value=4, max_value=12))
    def test_range_query_equivalence(self, pts, max_entries):
        tree = RTree.bulk_load(point_items(np.array(pts)),
                               max_entries=max_entries)
        query = Rect(-3.0, -3.0, 3.0, 3.0)
        assert sorted(tree.search(query)) == brute_range(
            np.array(pts), query)
