"""Tests for repro.geometry.rect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Rect

coord = st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)


def inside(inner: Rect, outer: Rect) -> bool:
    """True when ``inner`` lies entirely inside ``outer``."""
    return (outer.xmin <= inner.xmin and inner.xmax <= outer.xmax
            and outer.ymin <= inner.ymin and inner.ymax <= outer.ymax)


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


class TestAccessors:
    def test_dimensions(self):
        r = Rect(0.0, 0.0, 3.0, 4.0)
        assert r.width == 3.0
        assert r.height == 4.0
        assert r.area == 12.0
        assert r.diagonal == 5.0
        assert r.center.as_tuple() == (1.5, 2.0)


class TestPredicates:
    def test_contains_point_closed(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(0.0, 0.0)  # corner included
        assert r.contains_point(1.0, 0.5)  # edge included
        assert not r.contains_point(1.0001, 0.5)

    def test_intersects_touching_edges(self):
        a = Rect(0, 0, 1, 1)
        assert a.intersects(Rect(1, 0, 2, 1))  # shared edge
        assert a.intersects(Rect(1, 1, 2, 2))  # shared corner
        assert not a.intersects(Rect(1.001, 0, 2, 1))

    def test_intersection(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))  # overlapping interiors
        assert a.intersects(Rect(0.5, 0.5, 1, 1))  # nested
        assert not a.intersects(Rect(5, 5, 6, 6))

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


class TestRectProperties:
    @given(rects(), rects())
    def test_union_commutative_and_covering(self, a, b):
        u = a.union(b)
        assert u == b.union(a)
        assert inside(a, u)
        assert inside(b, u)

    @given(rects(), rects())
    def test_intersection_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_intersection_inside_both(self, a, b):
        # intersects() holds exactly when the overlap box is non-empty,
        # and that box then lies inside both operands.
        xmin, ymin = max(a.xmin, b.xmin), max(a.ymin, b.ymin)
        xmax, ymax = min(a.xmax, b.xmax), min(a.ymax, b.ymax)
        assert a.intersects(b) == (xmin <= xmax and ymin <= ymax)
        if a.intersects(b):
            inter = Rect(xmin, ymin, xmax, ymax)
            assert inside(inter, a)
            assert inside(inter, b)

    @given(rects())
    def test_split_center_partitions_area(self, r):
        quads = r.split_center()
        assert sum(q.area for q in quads) == pytest.approx(
            r.area, rel=1e-9, abs=1e-9)
        for q in quads:
            assert inside(q, r)
