"""Tests for repro.core.region (Phase II / Algorithm 2)."""

import math

import numpy as np
import pytest

from repro.core.nlc import build_nlcs
from repro.core.region import (OptimalRegion, compute_optimal_region,
                               select_found)
from repro.geometry.circle import Circle
from repro.geometry.intersection import intersect_disks
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet


def circle_set(circles, scores=None):
    return CircleSet.from_circles(circles, scores=scores)


class TestComputeOptimalRegion:
    def test_empty_cover(self):
        cs = circle_set([Circle(0, 0, 1)])
        region = compute_optimal_region(Rect(5, 5, 6, 6),
                                        np.array([], dtype=np.int64), cs,
                                        score=0.0)
        assert region.shape is None
        assert region.score == 0.0
        assert region.contains_point(5.5, 5.5)
        assert region.representative_point().x == pytest.approx(5.5)
        assert region.area == pytest.approx(1.0)

    def test_single_cover_is_full_disk(self):
        cs = circle_set([Circle(0, 0, 2)])
        region = compute_optimal_region(
            Rect(-0.1, -0.1, 0.1, 0.1), np.array([0]), cs, score=1.0)
        assert region.shape is not None
        assert region.area == pytest.approx(np.pi * 4)
        assert region.clipping_count == 1

    def test_matches_full_intersection(self, rng):
        """Algorithm 2's early stop must not change the region."""
        for trial in range(15):
            quad_center = rng.uniform(0.4, 0.6, 2)
            circles = []
            for _ in range(rng.integers(2, 10)):
                # Disks all covering the quadrant around quad_center.
                cx, cy = quad_center + rng.uniform(-0.5, 0.5, 2)
                d = np.hypot(cx - quad_center[0], cy - quad_center[1])
                r = d + rng.uniform(0.1, 1.0)
                circles.append(Circle(float(cx), float(cy), float(r)))
            cs = circle_set(circles)
            half = 0.005
            quad = Rect(float(quad_center[0] - half),
                        float(quad_center[1] - half),
                        float(quad_center[0] + half),
                        float(quad_center[1] + half))
            cover = np.flatnonzero(cs.contains_rect_mask(quad))
            if len(cover) < 2:
                continue
            region = compute_optimal_region(quad, cover, cs, score=1.0)
            full = intersect_disks([circles[int(i)] for i in cover])
            assert region.shape.area == pytest.approx(full.area, rel=1e-9)

    def test_early_stop_skips_distant_disks(self):
        # Two tight disks and one huge one far from clipping range: the
        # huge disk must not be intersected.
        circles = [Circle(0, 0, 1), Circle(0.5, 0, 1), Circle(0, 0, 100)]
        cs = circle_set(circles)
        quad = Rect(0.2, -0.05, 0.3, 0.05)
        region = compute_optimal_region(quad, np.array([0, 1, 2]), cs,
                                        score=1.0)
        assert region.clipping_count == 2
        # And the region still equals the full three-way intersection
        # (the huge disk is redundant).
        full = intersect_disks(circles)
        assert region.shape.area == pytest.approx(full.area, rel=1e-9)

    def test_region_contains_seed_quadrant(self, small_k2_problem):
        nlcs = build_nlcs(small_k2_problem)
        # Construct a quadrant covered by at least two NLCs.
        idx = 0
        x, y = float(nlcs.cx[idx]), float(nlcs.cy[idx])
        quad = Rect(x - 1e-4, y - 1e-4, x + 1e-4, y + 1e-4)
        cover = np.flatnonzero(nlcs.contains_rect_mask(quad))
        region = compute_optimal_region(quad, cover, nlcs, score=1.0)
        for x in (quad.xmin, quad.xmax):
            for y in (quad.ymin, quad.ymax):
                assert region.contains_point(x, y, tol=1e-9)

    def test_cover_recorded(self):
        cs = circle_set([Circle(0, 0, 1), Circle(0.1, 0, 1)])
        region = compute_optimal_region(
            Rect(0, 0, 0.01, 0.01), np.array([1, 0]), cs, score=2.0)
        assert region.cover == (1, 0)
        assert region.score == 2.0


class TestOptimalRegionApi:
    def _region(self):
        cs = circle_set([Circle(0, 0, 1), Circle(0.5, 0, 1)])
        return compute_optimal_region(
            Rect(0.24, -0.01, 0.26, 0.01), np.array([0, 1]), cs,
            score=2.0)

    def test_contains_point(self):
        region = self._region()
        assert region.contains_point(0.25, 0.0)
        assert not region.contains_point(-0.8, 0.0)

    def test_representative_point_in_region(self):
        region = self._region()
        p = region.representative_point()
        assert region.contains_point(p.x, p.y)

    def test_area_positive(self):
        assert self._region().area > 0.0

    def test_is_dataclass_frozen(self):
        region = self._region()
        with pytest.raises(AttributeError):
            region.score = 3.0


class TestSelectFound:
    """Phase II's selection policy over ``(cover, score, rect)`` triples."""

    A = Rect(0, 0, 1, 1)
    B = Rect(1, 0, 2, 1)
    C = Rect(0, 1, 1, 2)

    def test_keeps_discovery_order(self):
        found = [((5, 7), 3.0, self.A), ((1, 2), 3.0, self.B),
                 ((3,), 3.0, self.C)]
        assert select_found(found, 3.0) == found

    def test_repeated_cover_keeps_its_first_rect(self):
        found = [((1, 2), 3.0, self.A), ((4,), 3.0, self.B),
                 ((1, 2), 3.0, self.C)]
        assert select_found(found, 3.0) == found[:2]

    def test_scores_below_the_floor_are_dropped(self):
        found = [((1,), 2.0, self.A), ((2, 3), 3.0, self.B),
                 ((4,), 2.5, self.C)]
        assert select_found(found, 2.9) == [found[1]]

    def test_minus_inf_floor_keeps_every_tier(self):
        found = [((1,), 1.0, self.A), ((2, 3), 3.0, self.B),
                 ((4,), 0.0, self.C), ((2, 3), 3.0, self.A)]
        assert select_found(found, -math.inf) == found[:3]
