"""Tests for repro.geometry.rect."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Rect

coord = st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1 = draw(coord)
    x2 = draw(coord)
    y1 = draw(coord)
    y2 = draw(coord)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestConstruction:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Rect(0.0, 1.0, 1.0, 0.0)

    def test_degenerate_allowed(self):
        r = Rect(1.0, 2.0, 1.0, 2.0)
        assert r.area == 0.0
        assert r.contains_point(1.0, 2.0)

    def test_from_points(self):
        r = Rect.from_points([(0, 1), (2, -1), (1, 3)])
        assert r == Rect(0.0, -1.0, 2.0, 3.0)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_from_center(self):
        assert Rect.from_center(0.0, 0.0, 1.0) == Rect(-1, -1, 1, 1)
        assert Rect.from_center(0.0, 0.0, 1.0, 2.0) == Rect(-1, -2, 1, 2)


class TestAccessors:
    def test_dimensions(self):
        r = Rect(0.0, 0.0, 3.0, 4.0)
        assert r.width == 3.0
        assert r.height == 4.0
        assert r.area == 12.0
        assert r.diagonal == 5.0
        assert r.center.as_tuple() == (1.5, 2.0)

    def test_corners_ccw(self):
        corners = Rect(0, 0, 1, 2).corners()
        assert [c.as_tuple() for c in corners] == [
            (0, 0), (1, 0), (1, 2), (0, 2)]


class TestPredicates:
    def test_contains_point_closed(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(0.0, 0.0)  # corner included
        assert r.contains_point(1.0, 0.5)  # edge included
        assert not r.contains_point(1.0001, 0.5)

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 9, 9))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(-1, 1, 9, 9))

    def test_intersects_touching_edges(self):
        a = Rect(0, 0, 1, 1)
        assert a.intersects(Rect(1, 0, 2, 1))  # shared edge
        assert a.intersects(Rect(1, 1, 2, 2))  # shared corner
        assert not a.intersects(Rect(1.001, 0, 2, 1))

    def test_intersection(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        assert a.intersection(b) == Rect(1, 1, 2, 2)
        assert a.intersection(Rect(5, 5, 6, 6)) is None

    def test_union(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 2, 3, 3)
        assert a.union(b) == Rect(0, 0, 3, 3)

    def test_expanded(self):
        assert Rect(0, 0, 1, 1).expanded(0.5) == Rect(-0.5, -0.5, 1.5, 1.5)


class TestSplit:
    def test_split_center_four_quadrants(self):
        quads = Rect(0, 0, 2, 2).split_center()
        assert len(quads) == 4
        assert sum(q.area for q in quads) == pytest.approx(4.0)
        assert Rect(0, 0, 1, 1) in quads
        assert Rect(1, 1, 2, 2) in quads

    def test_split_at_interior_point(self):
        quads = Rect(0, 0, 4, 4).split_at(1.0, 3.0)
        assert len(quads) == 4
        assert sum(q.area for q in quads) == pytest.approx(16.0)
        assert Rect(0, 0, 1, 3) in quads

    def test_split_at_edge_point(self):
        quads = Rect(0, 0, 2, 2).split_at(1.0, 0.0)
        # Two full-height halves plus two degenerate bottom slivers.
        assert len(quads) == 4
        areas = sorted(q.area for q in quads)
        assert areas[:2] == [0.0, 0.0]
        assert sum(areas) == pytest.approx(4.0)

    def test_split_at_corner_echoes_self(self):
        rect = Rect(0, 0, 2, 2)
        quads = rect.split_at(0.0, 0.0)
        assert rect in quads

    def test_split_outside_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).split_at(2.0, 0.5)


class TestDistances:
    def test_max_distance(self):
        r = Rect(0, 0, 1, 1)
        assert r.max_distance_to_point(0.0, 0.0) == pytest.approx(
            math.sqrt(2))
        assert r.max_distance_to_point(0.5, 0.5) == pytest.approx(
            math.sqrt(0.5))


class TestRectProperties:
    @given(rects(), rects())
    def test_union_commutative_and_covering(self, a, b):
        u = a.union(b)
        assert u == b.union(a)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), rects())
    def test_intersection_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        ia = a.intersection(b)
        ib = b.intersection(a)
        assert ia == ib

    @given(rects(), rects())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)

    @given(rects())
    def test_split_center_partitions_area(self, r):
        quads = r.split_center()
        assert sum(q.area for q in quads) == pytest.approx(
            r.area, rel=1e-9, abs=1e-9)
        for q in quads:
            assert r.contains_rect(q)

    @given(rects(), coord, coord)
    def test_max_distance_is_farthest_corner(self, r, x, y):
        farthest = max(math.hypot(c.x - x, c.y - y) for c in r.corners())
        assert r.max_distance_to_point(x, y) == pytest.approx(farthest)
