"""Tests for repro.geometry.circle."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.geometry.circle import (Circle, circle_circle_intersection,
                                   circle_contains_rect,
                                   circle_intersects_rect)
from repro.geometry.rect import Rect

coord = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.01, max_value=20.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def circles(draw):
    return Circle(draw(coord), draw(coord), draw(radius))


@st.composite
def rects(draw):
    x1, x2 = draw(coord), draw(coord)
    y1, y2 = draw(coord), draw(coord)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class TestCircleBasics:
    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            Circle(0.0, 0.0, -1.0)

    def test_zero_radius_allowed(self):
        c = Circle(1.0, 2.0, 0.0)
        assert c.contains_point(1.0, 2.0)
        assert not c.contains_point(1.0, 2.0001)

    def test_area(self):
        c = Circle(1.0, 1.0, 2.0)
        assert c.area == pytest.approx(math.pi * 4.0)

    def test_contains_point_closed(self):
        c = Circle(0.0, 0.0, 1.0)
        assert c.contains_point(1.0, 0.0)  # boundary included
        assert c.contains_point(0.5, 0.5)
        assert not c.contains_point(1.0, 0.1)

    def test_contains_point_tolerance(self):
        c = Circle(0.0, 0.0, 1.0)
        assert not c.contains_point(1.0 + 1e-6, 0.0)
        assert c.contains_point(1.0 + 1e-6, 0.0, tol=1e-5)

    def test_signed_boundary_distance(self):
        c = Circle(0.0, 0.0, 2.0)
        assert c.signed_boundary_distance(0.0, 0.0) == 2.0
        assert c.signed_boundary_distance(1.0, 0.0) == 1.0
        assert c.signed_boundary_distance(3.0, 0.0) == -1.0

    def test_point_at(self):
        c = Circle(1.0, 1.0, 2.0)
        p = c.point_at(math.pi / 2)
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(3.0)

    def test_contains_circle(self):
        big = Circle(0.0, 0.0, 5.0)
        assert big.contains_circle(Circle(1.0, 0.0, 2.0))
        assert big.contains_circle(Circle(0.0, 0.0, 5.0))
        assert not big.contains_circle(Circle(4.0, 0.0, 2.0))

    def test_intersects_circle(self):
        a = Circle(0.0, 0.0, 1.0)
        assert a.intersects_circle(Circle(1.5, 0.0, 1.0))
        assert a.intersects_circle(Circle(2.0, 0.0, 1.0))  # tangent
        assert not a.intersects_circle(Circle(3.0, 0.0, 1.0))


class TestCircleCircleIntersection:
    def test_two_points(self):
        pts = circle_circle_intersection(Circle(0, 0, 1), Circle(1, 0, 1))
        assert len(pts) == 2
        for p in pts:
            assert p.x == pytest.approx(0.5)
            assert abs(p.y) == pytest.approx(math.sqrt(3) / 2)

    def test_points_on_both_circumferences(self):
        a = Circle(0.3, -0.2, 1.7)
        b = Circle(1.1, 0.9, 1.2)
        for p in circle_circle_intersection(a, b):
            assert math.hypot(p.x - a.cx, p.y - a.cy) == pytest.approx(a.r)
            assert math.hypot(p.x - b.cx, p.y - b.cy) == pytest.approx(b.r)

    def test_tangent_external(self):
        pts = circle_circle_intersection(Circle(0, 0, 1), Circle(2, 0, 1))
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(1.0)
        assert pts[0].y == pytest.approx(0.0)

    def test_tangent_internal(self):
        pts = circle_circle_intersection(Circle(0, 0, 2), Circle(1, 0, 1))
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(2.0)

    def test_disjoint_none(self):
        assert circle_circle_intersection(
            Circle(0, 0, 1), Circle(5, 0, 1)) == ()

    def test_contained_none(self):
        assert circle_circle_intersection(
            Circle(0, 0, 3), Circle(0.5, 0, 1)) == ()

    def test_concentric_none(self):
        assert circle_circle_intersection(
            Circle(0, 0, 1), Circle(0, 0, 2)) == ()
        assert circle_circle_intersection(
            Circle(0, 0, 1), Circle(0, 0, 1)) == ()

    @given(circles(), circles())
    def test_symmetric(self, a, b):
        pts_ab = circle_circle_intersection(a, b)
        pts_ba = circle_circle_intersection(b, a)
        assert len(pts_ab) == len(pts_ba)
        set_ab = {(round(p.x, 6), round(p.y, 6)) for p in pts_ab}
        set_ba = {(round(p.x, 6), round(p.y, 6)) for p in pts_ba}
        assert set_ab == set_ba

    @given(circles(), circles())
    def test_points_lie_on_circles(self, a, b):
        for p in circle_circle_intersection(a, b):
            da = math.hypot(p.x - a.cx, p.y - a.cy)
            db = math.hypot(p.x - b.cx, p.y - b.cy)
            scale = max(a.r, b.r, 1.0)
            assert abs(da - a.r) < 1e-6 * scale
            assert abs(db - b.r) < 1e-6 * scale


class TestCircleRectPredicates:
    def test_intersects_open_semantics(self):
        c = Circle(0.0, 0.0, 1.0)
        # Disk interior properly overlaps the rect.
        assert circle_intersects_rect(c, Rect(0.5, -1, 3, 1))
        # Rect touches the circle at exactly one boundary point: excluded
        # (region semantics — open disk).
        assert not circle_intersects_rect(c, Rect(1.0, -1, 3, 1))
        # Rect fully outside.
        assert not circle_intersects_rect(c, Rect(2, 2, 3, 3))
        # Rect inside the disk.
        assert circle_intersects_rect(c, Rect(-0.1, -0.1, 0.1, 0.1))

    def test_contains_rect_closed_semantics(self):
        c = Circle(0.0, 0.0, 1.0)
        assert circle_contains_rect(c, Rect(-0.5, -0.5, 0.5, 0.5))
        # Inscribed square: corners on the circle (nudged inward by one
        # float step — exact incidence is ulp-sensitive by construction).
        s = math.sqrt(0.5) * (1.0 - 1e-15)
        assert circle_contains_rect(c, Rect(-s, -s, s, s))
        assert not circle_contains_rect(c, Rect(-0.9, -0.9, 0.9, 0.9))

    def test_degenerate_point_rect(self):
        c = Circle(0.0, 0.0, 1.0)
        inside = Rect(0.5, 0.0, 0.5, 0.0)
        assert circle_intersects_rect(c, inside)
        assert circle_contains_rect(c, inside)
        on_boundary = Rect(1.0, 0.0, 1.0, 0.0)
        assert not circle_intersects_rect(c, on_boundary)  # open disk
        assert circle_contains_rect(c, on_boundary)        # closed disk

    @given(circles(), rects())
    def test_contains_implies_intersects_when_interior_overlaps(self, c, r):
        # contains (closed) plus a genuinely interior rect point implies
        # open-disk intersection.  Only exact-real true: a rect tangent
        # to the circle with sub-ulp extent (width ~1e-160) has no
        # float-representable point strictly inside the open disk, so
        # require the extent to dwarf the rounding at the tangency.
        assume(r.width >= 1e-9 and r.height >= 1e-9)
        if circle_contains_rect(c, r) and r.area > 0:
            assert circle_intersects_rect(c, r)

    @given(circles(), rects())
    def test_intersects_matches_sampling(self, c, r):
        """Open-disk/rect intersection agrees with a point witness."""
        if circle_intersects_rect(c, r):
            # The clamped nearest point must be strictly inside the disk.
            nx = min(max(c.cx, r.xmin), r.xmax)
            ny = min(max(c.cy, r.ymin), r.ymax)
            assert math.hypot(nx - c.cx, ny - c.cy) < c.r
