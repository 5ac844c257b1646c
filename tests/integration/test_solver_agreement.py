"""Cross-solver agreement: MaxFirst == MaxOverlap == reference.

These are the load-bearing correctness tests of the whole reproduction:
three solvers with disjoint mechanisms (best-first quadtree search,
region-to-point candidate enumeration, brute-force candidate scoring)
must produce the same optimum on the same instances.
"""

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.gridsearch import grid_search_nlcs
from repro.baselines.maxoverlap import MaxOverlap
from repro.baselines.reference import reference_solve_nlcs
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.probability import ProbabilityModel
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance

from tests.conftest import assert_scores_close


def solve_all_ways(problem):
    nlcs = build_nlcs(problem)
    mf = MaxFirst().solve_nlcs(nlcs)
    mo = MaxOverlap().solve_nlcs(nlcs)
    ref = reference_solve_nlcs(nlcs)
    return mf, mo, ref


class TestSystematicSweep:
    @pytest.mark.parametrize("distribution", ["uniform", "normal",
                                              "clustered"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_three_way_agreement(self, distribution, k):
        # crc32, not hash(): str hashes are salted per process.
        seed = zlib.crc32(repr((distribution, k)).encode())
        customers, sites = synthetic_instance(140, 12, distribution,
                                              seed=seed)
        problem = MaxBRkNNProblem(customers, sites, k=k)
        mf, mo, ref = solve_all_ways(problem)
        ctx = f"{distribution} k={k} seed={seed}"
        assert_scores_close(mf.score, ref.score, context=f"mf {ctx}")
        assert_scores_close(mo.score, ref.score, context=f"mo {ctx}")

    @pytest.mark.parametrize("model_name", ["linear", "harmonic"])
    def test_paper_probability_series(self, model_name):
        k = 3
        model = getattr(ProbabilityModel, model_name)(k)
        customers, sites = synthetic_instance(100, 10, "uniform", seed=77)
        problem = MaxBRkNNProblem(customers, sites, k=k,
                                  probability=model)
        mf, mo, ref = solve_all_ways(problem)
        assert_scores_close(mf.score, ref.score, context=model_name)
        assert_scores_close(mo.score, ref.score, context=model_name)

    def test_grid_search_lower_bounds_all(self):
        customers, sites = synthetic_instance(90, 9, "uniform", seed=5)
        problem = MaxBRkNNProblem(customers, sites, k=2)
        nlcs = build_nlcs(problem)
        mf = MaxFirst().solve_nlcs(nlcs)
        approx = grid_search_nlcs(nlcs, samples_per_axis=64)
        assert approx.score <= mf.score + 1e-9


class TestHypothesisInstances:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_customers=st.integers(min_value=2, max_value=60),
        n_sites=st.integers(min_value=2, max_value=10),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_random_instances_agree(self, seed, n_customers, n_sites, k):
        k = min(k, n_sites)
        rng = np.random.default_rng(seed)
        customers = rng.uniform(0, 10, (n_customers, 2))
        sites = rng.uniform(0, 10, (n_sites, 2))
        problem = MaxBRkNNProblem(customers, sites, k=k)
        mf, mo, ref = solve_all_ways(problem)
        ctx = f"seed={seed} n={n_customers} m={n_sites} k={k}"
        assert_scores_close(mf.score, ref.score, context=f"mf {ctx}")
        assert_scores_close(mo.score, ref.score, context=f"mo {ctx}")

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scale=st.floats(min_value=1e-3, max_value=1e4),
        offset=st.floats(min_value=-1e4, max_value=1e4),
    )
    def test_affine_invariance(self, seed, scale, offset):
        """Translating/scaling the plane must not change the optimum
        (scores are combinatorial)."""
        rng = np.random.default_rng(seed)
        customers = rng.uniform(0, 1, (40, 2))
        sites = rng.uniform(0, 1, (6, 2))
        base = MaxFirst().solve(MaxBRkNNProblem(customers, sites, k=2))
        moved = MaxFirst().solve(MaxBRkNNProblem(
            customers * scale + offset, sites * scale + offset, k=2))
        assert_scores_close(base.score, moved.score,
                            context=f"scale={scale} offset={offset}")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_duplicate_customers_sum(self, seed):
        """Duplicating every customer doubles the optimum — equivalent
        to doubling weights."""
        rng = np.random.default_rng(seed)
        customers = rng.uniform(0, 1, (30, 2))
        sites = rng.uniform(0, 1, (5, 2))
        single = MaxFirst().solve(MaxBRkNNProblem(customers, sites, k=1))
        doubled = MaxFirst().solve(MaxBRkNNProblem(
            np.vstack((customers, customers)), sites, k=1))
        weighted = MaxFirst().solve(MaxBRkNNProblem(
            customers, sites, k=1,
            weights=np.full(30, 2.0)))
        assert_scores_close(doubled.score, 2 * single.score)
        assert_scores_close(weighted.score, 2 * single.score)


class TestColocatedData:
    def test_many_customers_one_location(self):
        customers = np.tile([[0.5, 0.5]], (20, 1))
        sites = np.array([[0.0, 0.0], [1.0, 1.0]])
        problem = MaxBRkNNProblem(customers, sites, k=1)
        mf, mo, ref = solve_all_ways(problem)
        assert mf.score == pytest.approx(20.0)
        assert mo.score == pytest.approx(20.0)
        assert ref.score == pytest.approx(20.0)

    def test_colocated_sites(self):
        customers = np.array([[0.0, 0.0], [2.0, 0.0]])
        sites = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        problem = MaxBRkNNProblem(customers, sites, k=2)
        mf, mo, ref = solve_all_ways(problem)
        assert_scores_close(mf.score, ref.score)
        assert_scores_close(mo.score, ref.score)

    def test_grid_lattice_data(self):
        """Exactly regular data maximises geometric degeneracies."""
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        customers = np.column_stack((xs.ravel(), ys.ravel()))
        sites = np.array([[0.5, 0.5], [3.5, 3.5], [0.5, 3.5], [3.5, 0.5]])
        problem = MaxBRkNNProblem(customers, sites, k=1)
        mf, mo, ref = solve_all_ways(problem)
        assert_scores_close(mf.score, ref.score)
        assert_scores_close(mo.score, ref.score)
