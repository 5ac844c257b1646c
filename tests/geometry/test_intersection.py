"""Tests for repro.geometry.intersection (disk intersection kernel)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.intersection import DisjointDisksError, intersect_disks

from tests.conftest import polygon_area_by_sampling


@st.composite
def overlapping_circles(draw, max_circles=5):
    """Circles guaranteed to share the neighbourhood of a common point."""
    n = draw(st.integers(min_value=1, max_value=max_circles))
    px = draw(st.floats(min_value=-5, max_value=5))
    py = draw(st.floats(min_value=-5, max_value=5))
    out = []
    for _ in range(n):
        cx = px + draw(st.floats(min_value=-0.8, max_value=0.8))
        cy = py + draw(st.floats(min_value=-0.8, max_value=0.8))
        d = math.hypot(cx - px, cy - py)
        # Radius strictly beyond the anchor point: interior contains it.
        r = d + draw(st.floats(min_value=0.1, max_value=2.0))
        out.append(Circle(cx, cy, r))
    return out, (px, py)


class TestBasicShapes:
    def test_no_circles_raises(self):
        with pytest.raises(ValueError):
            intersect_disks([])

    def test_single_disk(self):
        region = intersect_disks([Circle(0, 0, 2)])
        assert region.area == pytest.approx(math.pi * 4)
        assert len(region.arcs) == 1
        assert region.arcs[0].is_full_circle

    def test_duplicate_disks_deduped(self):
        region = intersect_disks([Circle(0, 0, 2), Circle(0, 0, 2)])
        assert region.area == pytest.approx(math.pi * 4)

    def test_nested_disks(self):
        region = intersect_disks([Circle(0, 0, 5), Circle(0.5, 0, 1)])
        # Intersection is the smaller disk.
        assert region.area == pytest.approx(math.pi, rel=1e-9)
        assert region.contains_point(0.5, 0.0)
        assert not region.contains_point(2.0, 0.0)

    def test_disjoint_raises(self):
        with pytest.raises(DisjointDisksError):
            intersect_disks([Circle(0, 0, 1), Circle(5, 0, 1)])

    def test_externally_tangent_degenerate(self):
        region = intersect_disks([Circle(0, 0, 1), Circle(2, 0, 1)],
                                 tol=1e-9)
        assert region.is_degenerate
        assert region.degenerate_point.x == pytest.approx(1.0)
        assert region.degenerate_point.y == pytest.approx(0.0, abs=1e-6)

    def test_three_circles_through_one_point_degenerate(self):
        # Circles centred on the unit circle, all through the origin,
        # spread so the only common point is the origin.
        circles = [Circle(math.cos(t), math.sin(t), 1.0)
                   for t in (0.0, 2.1, 4.2)]
        region = intersect_disks(circles)
        assert region.is_degenerate
        assert abs(region.degenerate_point.x) < 1e-9
        assert abs(region.degenerate_point.y) < 1e-9

    def test_classic_reuleaux(self):
        # Three unit circles at pairwise distance 1: the Reuleaux-triangle
        # area has a closed form (pi - sqrt(3)) / 2.
        circles = [Circle(0, 0, 1), Circle(1, 0, 1),
                   Circle(0.5, math.sqrt(3) / 2, 1)]
        region = intersect_disks(circles)
        expected = (math.pi - math.sqrt(3)) / 2
        assert region.area == pytest.approx(expected, rel=1e-9)
        assert len(region.arcs) == 3


class TestAgainstSampling:
    @pytest.mark.parametrize("seed", range(6))
    def test_area_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        circles = []
        for _ in range(rng.integers(2, 6)):
            circles.append(Circle(float(rng.uniform(-0.4, 0.4)),
                                  float(rng.uniform(-0.4, 0.4)),
                                  float(rng.uniform(0.8, 1.6))))
        region = intersect_disks(circles)
        approx = polygon_area_by_sampling(region, samples=1200, seed=seed)
        assert region.area == pytest.approx(approx, rel=0.08)

    @pytest.mark.parametrize("seed", range(6))
    def test_membership_matches_definition(self, seed):
        rng = np.random.default_rng(100 + seed)
        circles = [Circle(float(rng.uniform(-0.3, 0.3)),
                          float(rng.uniform(-0.3, 0.3)),
                          float(rng.uniform(0.7, 1.4)))
                   for _ in range(3)]
        region = intersect_disks(circles)
        for _ in range(200):
            x = float(rng.uniform(-1.5, 1.5))
            y = float(rng.uniform(-1.5, 1.5))
            expected = all(c.contains_point(x, y, tol=1e-9)
                           for c in circles)
            assert region.contains_point(x, y) == expected


class TestIntersectionProperties:
    @settings(max_examples=60, deadline=None)
    @given(overlapping_circles())
    def test_anchor_inside_and_boundary_on_all(self, data):
        circles, (px, py) = data
        region = intersect_disks(circles)
        assert not region.is_degenerate
        assert region.contains_point(px, py)
        # Every boundary sample lies inside every disk (with tolerance)
        # and on at least one circumference.
        for p in region.sample_boundary(12):
            for c in circles:
                assert c.contains_point(p.x, p.y, tol=1e-6 * max(1, c.r))
            on_any = any(
                abs(c.distance_to_center(p.x, p.y) - c.r) < 1e-6 * max(1, c.r)
                for c in circles)
            assert on_any

    @settings(max_examples=60, deadline=None)
    @given(overlapping_circles())
    def test_area_monotone_under_more_disks(self, data):
        circles, _ = data
        prev_area = math.inf
        for i in range(1, len(circles) + 1):
            area = intersect_disks(circles[:i]).area
            assert area <= prev_area + 1e-9
            prev_area = area

    @settings(max_examples=40, deadline=None)
    @given(overlapping_circles(max_circles=4))
    def test_representative_point_in_all_disks(self, data):
        circles, _ = data
        region = intersect_disks(circles)
        p = region.representative_point()
        for c in circles:
            assert c.contains_point(p.x, p.y, tol=1e-9)
