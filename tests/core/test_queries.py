"""Tests for repro.core.queries (BRkNN operators and what-if analysis)."""

import numpy as np
import pytest

from repro.core.influence import influence_at
from repro.core.queries import (brknn_of_site, impact_of_new_site,
                                knn_sites, site_influence)
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance


@pytest.fixture
def line_problem():
    """Customers on a line, sites interleaved — ranks by hand."""
    customers = [(0.0, 0.0), (10.0, 0.0)]
    sites = [(1.0, 0.0), (3.0, 0.0), (9.0, 0.0)]
    return MaxBRkNNProblem(customers, sites, k=2,
                           probability=[0.7, 0.3])


class TestKnnSites:
    def test_hand_ranks(self, line_problem):
        ranks = knn_sites(line_problem)
        # Customer 0: site 0 (d=1) then site 1 (d=3).
        assert ranks[0].tolist() == [0, 1]
        # Customer 1: site 2 (d=1) then site 1 (d=7).
        assert ranks[1].tolist() == [2, 1]

    def test_matches_brute_force(self, rng):
        customers, sites = synthetic_instance(120, 15, "uniform", seed=31)
        problem = MaxBRkNNProblem(customers, sites, k=4)
        ranks = knn_sites(problem)
        d = np.hypot(customers[:, 0:1] - sites[None, :, 0],
                     customers[:, 1:2] - sites[None, :, 1])
        for i in range(customers.shape[0]):
            expected = sorted(range(sites.shape[0]),
                              key=lambda j: (d[i, j], j))[:4]
            assert ranks[i].tolist() == expected

    def test_k_equals_site_count(self):
        problem = MaxBRkNNProblem([(0, 0)], [(1, 0), (2, 0)], k=2)
        assert knn_sites(problem)[0].tolist() == [0, 1]

    def test_tie_broken_by_index(self):
        problem = MaxBRkNNProblem([(0.0, 0.0)],
                                  [(1.0, 0.0), (-1.0, 0.0)], k=2)
        assert knn_sites(problem)[0].tolist() == [0, 1]


class TestBrknnOfSite:
    def test_hand_influence(self, line_problem):
        s1 = brknn_of_site(line_problem, 1)
        # Site 1 is rank 2 for both customers: influence 0.3 + 0.3.
        assert s1.members == {0: 2, 1: 2}
        assert s1.influence == pytest.approx(0.6)
        assert s1.cardinality == 2

    def test_rank_one_site(self, line_problem):
        s0 = brknn_of_site(line_problem, 0)
        assert s0.members == {0: 1}
        assert s0.influence == pytest.approx(0.7)

    def test_out_of_range(self, line_problem):
        with pytest.raises(ValueError):
            brknn_of_site(line_problem, 3)

    def test_weighted(self):
        problem = MaxBRkNNProblem([(0, 0)], [(1, 0), (5, 0)], k=1,
                                  weights=[4.0])
        assert brknn_of_site(problem, 0).influence == pytest.approx(4.0)
        assert brknn_of_site(problem, 1).influence == 0.0


class TestSiteInfluence:
    def test_matches_per_site_queries(self, rng):
        customers, sites = synthetic_instance(100, 8, "uniform", seed=41)
        weights = rng.uniform(0.5, 2.0, 100)
        problem = MaxBRkNNProblem(customers, sites, k=3, weights=weights,
                                  probability=[0.5, 0.3, 0.2])
        totals = site_influence(problem)
        ranks = knn_sites(problem)
        for j in range(problem.n_sites):
            assert totals[j] == pytest.approx(
                brknn_of_site(problem, j, ranks=ranks).influence)

    def test_conserves_total_weight(self, rng):
        """Every customer distributes exactly its weight across sites."""
        customers, sites = synthetic_instance(80, 10, "uniform", seed=42)
        weights = rng.uniform(0.5, 2.0, 80)
        problem = MaxBRkNNProblem(customers, sites, k=2, weights=weights)
        assert site_influence(problem).sum() == pytest.approx(
            weights.sum())


class TestImpactOfNewSite:
    def test_gain_matches_influence_evaluator(self):
        customers, sites = synthetic_instance(90, 9, "uniform", seed=43)
        problem = MaxBRkNNProblem(customers, sites, k=2,
                                  probability=[0.8, 0.2])
        for probe in ((0.3, 0.3), (0.7, 0.2), (0.5, 0.9)):
            impact = impact_of_new_site(problem, *probe)
            # influence_at uses closed disks (boundary tolerance); away
            # from boundaries both notions coincide.
            expected = influence_at(problem, *probe).total
            assert impact.gain == pytest.approx(expected, abs=1e-9)

    def test_conservation(self, line_problem):
        """With k saturated, the newcomer's gain equals the incumbents'
        total loss plus any probability mass pulled from beyond rank k —
        here every won customer had a full top-k list, so gain == loss."""
        impact = impact_of_new_site(line_problem, 2.0, 0.0)
        assert impact.gain == pytest.approx(
            impact.total_incumbent_loss())

    def test_hand_example(self, line_problem):
        # New site at x=2: customer 0 distances: new=2, s0=1, s1=1 -> it
        # becomes rank 2 (strictly closer than s1? d(s1)=3 > 2 yes).
        impact = impact_of_new_site(line_problem, 2.0, 0.0)
        assert impact.customer_ranks[0] == 2
        # Customer 1: distances new=8, s2=1, s1=7 -> not in top 2.
        assert 1 not in impact.customer_ranks
        # Incumbent s1 loses its rank-2 share of customer 0.
        assert impact.incumbent_losses[1] == pytest.approx(0.3)

    def test_tie_leaves_incumbent(self):
        problem = MaxBRkNNProblem([(0.0, 0.0)], [(1.0, 0.0)], k=1)
        impact = impact_of_new_site(problem, -1.0, 0.0)  # exact tie
        assert impact.gain == 0.0
        assert impact.customers_won == 0

    @pytest.mark.parametrize("x, y", [(float("nan"), 0.0),
                                      (0.0, float("inf")),
                                      (float("-inf"), float("nan"))])
    def test_non_finite_location_rejected(self, line_problem, x, y):
        """A NaN place compares false against every distance and would
        rank first for every customer."""
        with pytest.raises(ValueError, match="must be finite"):
            impact_of_new_site(line_problem, x, y)

    def test_far_location_no_effect(self, line_problem):
        impact = impact_of_new_site(line_problem, 1000.0, 1000.0)
        assert impact.gain == 0.0
        assert impact.incumbent_losses == {}

    def test_optimal_location_has_best_gain(self):
        """The MaxFirst optimum dominates sampled alternatives in gain."""
        from repro.core.maxfirst import MaxFirst
        customers, sites = synthetic_instance(100, 10, "uniform", seed=44)
        problem = MaxBRkNNProblem(customers, sites, k=2)
        result = MaxFirst().solve(problem)
        p = result.optimal_location()
        best = impact_of_new_site(problem, p.x, p.y)
        assert best.gain == pytest.approx(result.score, abs=1e-9)
        rng = np.random.default_rng(0)
        for x, y in rng.random((100, 2)):
            other = impact_of_new_site(problem, float(x), float(y))
            assert other.gain <= best.gain + 1e-9
