"""Tests for repro.core.maxfirst (Algorithm 1 and the full solver)."""

import math

import numpy as np
import pytest

from repro.baselines.reference import reference_solve, reference_solve_nlcs
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.core.scoring import neighborhood_score
from repro.datasets.synthetic import synthetic_instance
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet

from tests.conftest import assert_scores_close


class TestConstructorValidation:
    def test_invalid_m_threshold(self):
        with pytest.raises(ValueError):
            MaxFirst(m_threshold=0)

    def test_invalid_theorem3(self):
        with pytest.raises(ValueError):
            MaxFirst(theorem3="maybe")

    def test_invalid_top_t(self):
        with pytest.raises(ValueError):
            MaxFirst(top_t=0)

    def test_invalid_tolerances(self):
        with pytest.raises(ValueError):
            MaxFirst(tie_tol=-1.0)
        with pytest.raises(ValueError):
            MaxFirst(resolution_fraction=-1.0)

    @pytest.mark.parametrize("option", ["tie_tol", "resolution_fraction",
                                        "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_options(self, option, value):
        with pytest.raises(ValueError, match="finite"):
            MaxFirst(**{option: value})

    def test_empty_nlcs_raises(self):
        empty = CircleSet(np.zeros(0), np.zeros(0), np.zeros(0),
                          np.zeros(0))
        with pytest.raises(ValueError):
            MaxFirst().solve_nlcs(empty)


class TestTinyInstances:
    def test_one_customer_one_site(self):
        result = MaxFirst().solve(MaxBRkNNProblem([(0, 0)], [(2, 0)]))
        assert result.score == pytest.approx(1.0)
        region = result.best_region
        # The optimal region is the customer's full NLC (radius 2 disk).
        assert region.area == pytest.approx(math.pi * 4, rel=1e-6)
        assert region.contains_point(0.0, 0.0)

    def test_two_disjoint_customers_tie(self):
        result = MaxFirst().solve(MaxBRkNNProblem(
            [(0, 0), (100, 100)], [(1, 0), (101, 100)]))
        assert result.score == pytest.approx(1.0)
        assert len(result.regions) == 2  # both NLCs tie at 1.0

    def test_two_overlapping_customers(self):
        result = MaxFirst().solve(MaxBRkNNProblem(
            [(0, 0), (1, 0)], [(3, 0), (-3, 0)]))
        assert result.score == pytest.approx(2.0)
        region = result.best_region
        # The optimum is the lens of the two NLCs; the midpoint is in it.
        assert region.contains_point(0.5, 0.0)

    def test_weighted_customers(self):
        # The heavy customer's NLC wins even though two light ones
        # overlap.
        result = MaxFirst().solve(MaxBRkNNProblem(
            [(0, 0), (0.5, 0), (100, 0)],
            [(3, 0), (103, 0)],
            weights=[1.0, 1.0, 5.0]))
        assert result.score == pytest.approx(5.0)
        assert result.best_region.contains_point(100.0, 0.0)

    def test_k2_skewed_prefers_first_circles(self):
        # Two customers whose first NLCs overlap beat three whose second
        # NLCs overlap when prob favours the nearest site.
        customers = [(0, 0), (1, 0), (10, 0), (10.5, 0), (11, 0)]
        sites = [(0.5, 2), (10.5, 4), (-50, 0)]
        result = MaxFirst().solve(MaxBRkNNProblem(
            customers, sites, k=2, probability=[0.9, 0.1]))
        ref = reference_solve(MaxBRkNNProblem(
            customers, sites, k=2, probability=[0.9, 0.1]))
        assert_scores_close(result.score, ref.score)

    def test_customer_on_site(self):
        # Zero-radius NLC: nothing can be strictly closer; the other
        # customer's region wins.
        result = MaxFirst().solve(MaxBRkNNProblem(
            [(1, 1), (5, 5)], [(1, 1), (9, 9)]))
        assert result.score == pytest.approx(1.0)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k,probability", [
        (1, None),
        (2, None),
        (2, [0.8, 0.2]),
        (3, [0.5, 0.3, 0.2]),
    ])
    def test_random_instances(self, seed, k, probability):
        customers, sites = synthetic_instance(
            120, 10, "uniform", seed=seed)
        problem = MaxBRkNNProblem(customers, sites, k=k,
                                  probability=probability)
        result = MaxFirst().solve(problem)
        ref = reference_solve(problem)
        assert_scores_close(result.score, ref.score,
                            context=f"seed={seed} k={k}")

    @pytest.mark.parametrize("seed", range(4))
    def test_normal_distribution(self, seed):
        customers, sites = synthetic_instance(
            150, 8, "normal", seed=seed)
        problem = MaxBRkNNProblem(customers, sites, k=2)
        result = MaxFirst().solve(problem)
        ref = reference_solve(problem)
        assert_scores_close(result.score, ref.score)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_instances(self, seed):
        rng = np.random.default_rng(seed)
        customers, sites = synthetic_instance(100, 9, "uniform",
                                              seed=seed + 50)
        weights = rng.uniform(0.1, 3.0, 100)
        problem = MaxBRkNNProblem(customers, sites, k=2, weights=weights,
                                  probability=[0.7, 0.3])
        result = MaxFirst().solve(problem)
        ref = reference_solve(problem)
        assert_scores_close(result.score, ref.score)

    def test_per_object_models(self):
        from repro.core.probability import ProbabilityModel
        customers, sites = synthetic_instance(80, 8, "uniform", seed=3)
        models = [ProbabilityModel.of(0.8, 0.2) if i % 2 == 0
                  else ProbabilityModel.uniform(2)
                  for i in range(80)]
        problem = MaxBRkNNProblem(customers, sites, k=2,
                                  probability=models)
        result = MaxFirst().solve(problem)
        ref = reference_solve(problem)
        assert_scores_close(result.score, ref.score)


class TestRegionsAreOptimal:
    def test_returned_locations_achieve_score(self, small_k2_problem):
        result = MaxFirst().solve(small_k2_problem)
        nlcs = result.nlcs
        tol = 1e-9 * max(result.space.width, result.space.height)
        for region in result.regions:
            p = region.representative_point()
            value = neighborhood_score(nlcs, p.x, p.y, tol=tol)
            assert_scores_close(value, result.score,
                                context="representative point")

    def test_region_interior_uniform_score(self, small_uniform_problem):
        result = MaxFirst().solve(small_uniform_problem)
        nlcs = result.nlcs
        region = result.best_region
        rng = np.random.default_rng(0)
        box = region.shape.bounding_box()
        hits = 0
        for _ in range(500):
            x = box.xmin + rng.random() * max(box.width, 1e-12)
            y = box.ymin + rng.random() * max(box.height, 1e-12)
            if region.contains_point(x, y, tol=-1e-12):
                hits += 1
                value = neighborhood_score(nlcs, x, y, tol=1e-12)
                assert value >= result.score - 1e-9
        assert hits > 0

    def test_distinct_regions_have_distinct_covers(
            self, small_uniform_problem):
        result = MaxFirst().solve(small_uniform_problem)
        covers = [frozenset(r.cover) for r in result.regions]
        assert len(covers) == len(set(covers))


class TestIntersectionPointProblem:
    def circles_through_origin(self, angles, radius=1.0):
        return [Circle(radius * math.cos(t), radius * math.sin(t), radius)
                for t in angles]

    def test_three_circles_meeting_terminate(self):
        circles = self.circles_through_origin((0.1, 2.2, 4.3))
        nlcs = CircleSet.from_circles(circles, scores=[1.0] * 3)
        result = MaxFirst().solve_nlcs(nlcs)
        # Region semantics: the common point has empty interior; the best
        # full-dimensional regions are the pairwise lenses (score 2).
        assert result.score == pytest.approx(2.0)
        assert len(result.regions) == 3  # all three lenses tie

    def test_many_circles_through_a_site(self):
        # The pervasive real case: many customers share their nearest
        # site, so all their NLCs pass through it exactly.
        rng = np.random.default_rng(7)
        site = np.array([0.5, 0.5])
        customers = site + rng.normal(scale=0.2, size=(40, 2))
        sites = np.vstack([site, [[5.0, 5.0]]])
        problem = MaxBRkNNProblem(customers, sites, k=1)
        result = MaxFirst().solve(problem)
        ref = reference_solve(problem)
        assert_scores_close(result.score, ref.score)
        # The pointwise score AT the site exceeds the region optimum —
        # the trap the intersection-point machinery must not fall into.
        nlcs = build_nlcs(problem)
        at_site = nlcs.cover_score_at(float(site[0]), float(site[1]),
                                      tol=1e-12)
        assert at_site > result.score

    def test_m_threshold_does_not_change_result(self):
        customers, sites = synthetic_instance(100, 8, "uniform", seed=9)
        problem = MaxBRkNNProblem(customers, sites, k=2)
        scores = {m: MaxFirst(m_threshold=m).solve(problem).score
                  for m in (1, 2, 4, 16)}
        values = list(scores.values())
        for v in values[1:]:
            assert v == pytest.approx(values[0])


class TestSolverOptions:
    def test_backends_agree(self, small_k2_problem):
        vector = MaxFirst(backend="vector").solve(small_k2_problem)
        rtree = MaxFirst(backend="rtree").solve(small_k2_problem)
        assert vector.score == pytest.approx(rtree.score)
        assert len(vector.regions) == len(rtree.regions)

    def test_theorem3_modes_agree(self, small_uniform_problem):
        results = {mode: MaxFirst(theorem3=mode).solve(
            small_uniform_problem) for mode in ("subset", "equality")}
        assert results["equality"].score == pytest.approx(
            results["subset"].score)
        # Subset pruning never does more splitting work than equality.
        assert (results["subset"].stats.splits
                <= results["equality"].stats.splits)

    def test_theorem3_off_rejected(self):
        # Theorem 3 is required for termination; "off" is not a mode.
        with pytest.raises(ValueError):
            MaxFirst(theorem3="off")

    def test_keep_zero_score_same_result(self, small_uniform_problem):
        customers = small_uniform_problem.customers
        sites = small_uniform_problem.sites
        problem = MaxBRkNNProblem(customers, sites, k=2)
        drop = MaxFirst().solve(problem)
        keep = MaxFirst(keep_zero_score_nlcs=True).solve(problem)
        assert drop.score == pytest.approx(keep.score)

    def test_max_iterations_guard(self, small_uniform_problem):
        with pytest.raises(RuntimeError):
            MaxFirst(max_iterations=3).solve(small_uniform_problem)

    def test_stats_accounting(self, small_uniform_problem):
        result = MaxFirst().solve(small_uniform_problem)
        s = result.stats
        # Every generated quadrant is eventually split, pruned (by
        # Theorem 2, Theorem 3, or the compatibility refinement), or a
        # result; re-queues pop twice but are generated once.
        assert s.generated == (s.splits + s.pruned_theorem2
                               + s.pruned_theorem3 + s.pruned_refined
                               + s.results)
        assert s.generated >= 4
        assert s.results >= 1

    def test_timings_recorded(self, small_uniform_problem):
        result = MaxFirst().solve(small_uniform_problem)
        assert set(result.timings) == {"nlc", "phase1", "phase2"}
        assert all(v >= 0 for v in result.timings.values())


class TestTopT:
    def test_top1_equals_default(self, small_uniform_problem):
        default = MaxFirst().solve(small_uniform_problem)
        top1 = MaxFirst(top_t=1).solve(small_uniform_problem)
        assert default.score == pytest.approx(top1.score)

    def test_top3_scores_descend_and_start_at_optimum(
            self, small_uniform_problem):
        result = MaxFirst(top_t=3).solve(small_uniform_problem)
        ref = reference_solve_nlcs(result.nlcs)
        scores = [r.score for r in result.regions]
        assert scores[0] == pytest.approx(ref.score)
        assert scores == sorted(scores, reverse=True)
        distinct = sorted({round(s, 9) for s in scores}, reverse=True)
        assert len(distinct) <= 3

    def test_top_t_regions_guarantee_scores(self, small_k2_problem):
        result = MaxFirst(top_t=2).solve(small_k2_problem)
        nlcs = result.nlcs
        for region in result.regions:
            p = region.representative_point()
            value = neighborhood_score(nlcs, p.x, p.y, tol=1e-12)
            assert value >= region.score - 1e-9


class TestEchoFreeChildren:
    """Splitting must never re-push the quadrant itself (an echo loops
    the search forever at increasing depth)."""

    RECT = Rect(0.0, 0.0, 1.0, 1.0)

    @staticmethod
    def _children(rect, x, y):
        from repro.core.maxfirst import _echo_free_children
        return _echo_free_children(rect, rect.split_at(x, y))

    def test_interior_split_passes_through(self):
        out = self._children(self.RECT, 0.25, 0.75)
        assert len(out) == 4
        assert self.RECT not in out

    @pytest.mark.parametrize("x,y", [
        (1.0, 1.0),  # top-right corner: children[0] == rect and is
                     # full-dimensional — the regression the guard missed
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
    ])
    def test_corner_split_never_echoes(self, x, y):
        out = self._children(self.RECT, x, y)
        assert self.RECT not in out
        # The echo is replaced by the centre split, so full coverage of
        # the rectangle survives.
        assert any(c.xmax - c.xmin == 0.5 and c.ymax - c.ymin == 0.5
                   for c in out)

    @pytest.mark.parametrize("x,y", [
        (0.5, 1.0), (0.5, 0.0), (0.0, 0.5), (1.0, 0.5),
    ])
    def test_edge_split_never_echoes(self, x, y):
        out = self._children(self.RECT, x, y)
        assert self.RECT not in out
