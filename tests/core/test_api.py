"""Tests for repro.core.api and repro.core.result."""

import pytest

import repro
from repro.core.api import find_optimal_location, find_optimal_regions
from repro.geometry.point import Point


class TestFindOptimalRegions:
    def test_docstring_example(self):
        result = find_optimal_regions([(0, 0), (1, 0)],
                                      [(4, 4), (-4, 4)])
        assert result.score == pytest.approx(2.0)

    def test_solver_options_forwarded(self):
        result = find_optimal_regions([(0, 0)], [(2, 0)], m_threshold=8)
        assert result.score == pytest.approx(1.0)

    def test_invalid_option_raises(self):
        with pytest.raises(TypeError):
            find_optimal_regions([(0, 0)], [(2, 0)], bogus_option=1)

    def test_probability_and_weights(self):
        result = find_optimal_regions(
            [(0, 0), (10, 0)], [(1, 0), (11, 0), (-50, 0)], k=2,
            weights=[1.0, 3.0], probability=[0.8, 0.2])
        # Inside the heavy customer's first NLC (weight 3 at 80%), which
        # also lies within the light customer's second NLC (radius 11
        # around the origin): 3*0.8 + 1*0.2.
        assert result.score == pytest.approx(3.0 * 0.8 + 1.0 * 0.2)

    def test_public_reexports(self):
        # The package root exposes the documented public API.
        for name in ("MaxFirst", "MaxOverlap", "MaxBRkNNProblem",
                     "ProbabilityModel", "InfluenceEvaluator",
                     "find_optimal_regions", "find_optimal_location",
                     "reference_solve", "grid_search", "build_nlcs"):
            assert hasattr(repro, name), name


class TestFindOptimalLocation:
    def test_returns_point_in_best_region(self):
        location = find_optimal_location([(0, 0), (1, 0)],
                                         [(4, 4), (-4, 4)])
        assert isinstance(location, Point)
        result = find_optimal_regions([(0, 0), (1, 0)], [(4, 4), (-4, 4)])
        assert any(r.contains_point(location.x, location.y)
                   for r in result.regions)


class TestResult:
    def test_summary_mentions_score_and_stats(self, small_uniform_problem):
        result = repro.MaxFirst().solve(small_uniform_problem)
        text = result.summary()
        assert "score" in text
        assert "quadrants" in text
        assert "region 0" in text

    def test_best_region_empty_raises(self, small_uniform_problem):
        result = repro.MaxFirst().solve(small_uniform_problem)
        trimmed = repro.MaxBRkNNResult(
            score=result.score, regions=(), nlcs=result.nlcs,
            space=result.space)
        with pytest.raises(ValueError):
            trimmed.best_region

    def test_total_time(self, small_uniform_problem):
        result = repro.MaxFirst().solve(small_uniform_problem)
        assert result.total_time == pytest.approx(
            sum(result.timings.values()))
