"""Tests for repro.core.nlc (the kNN search and NLC construction)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import store as nlc_store
from repro.core.nlc import (build_nlcs, build_nlcs_streaming, knn_distances,
                            nlc_space, stream_nlc_chunks)
from repro.core.probability import ProbabilityModel
from repro.core.problem import MaxBRkNNProblem

from tests.conftest import brute_knn_distances


class TestKnnDistances:
    def test_invalid_k(self, rng):
        pts = rng.random((5, 2))
        with pytest.raises(ValueError):
            knn_distances(pts, pts, 0)
        with pytest.raises(ValueError):
            knn_distances(pts, pts, 6)

    def test_matches_reference(self, rng):
        queries = rng.random((40, 2))
        points = rng.random((25, 2))
        for k in (1, 3, 25):
            got = knn_distances(queries, points, k)
            expected = brute_knn_distances(queries, points, k)
            np.testing.assert_allclose(got, expected, rtol=1e-9,
                                       atol=1e-12)

    def test_distances_sorted_per_row(self, rng):
        d = knn_distances(rng.random((30, 2)), rng.random((15, 2)), 5)
        assert (np.diff(d, axis=1) >= 0).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_brute_chunking_boundary(self, seed):
        rng = np.random.default_rng(seed)
        queries = rng.random((7, 2)) * 10
        points = rng.random((9, 2)) * 10
        got = knn_distances(queries, points, 3)
        np.testing.assert_allclose(
            got, brute_knn_distances(queries, points, 3))


class TestBuildNlcs:
    def test_k1_counts_and_scores(self, small_uniform_problem):
        nlcs = build_nlcs(small_uniform_problem)
        assert len(nlcs) == small_uniform_problem.n_customers
        assert (nlcs.scores == 1.0).all()
        assert (nlcs.levels == 1).all()

    def test_radii_are_knn_distances(self, small_uniform_problem):
        p = small_uniform_problem
        nlcs = build_nlcs(p)
        expected = brute_knn_distances(p.customers, p.sites, 1)[:, 0]
        order = np.argsort(nlcs.owners)
        np.testing.assert_allclose(nlcs.r[order], expected)

    def test_uniform_model_drops_zero_score_circles(self):
        # With the uniform model only the k-th NLC carries score, so the
        # builder keeps exactly one circle per object.
        p = MaxBRkNNProblem([(0, 0), (5, 5)],
                            [(1, 0), (2, 0), (3, 0)], k=3)
        nlcs = build_nlcs(p)
        assert len(nlcs) == 2
        assert (nlcs.levels == 3).all()
        assert nlcs.scores == pytest.approx([1 / 3, 1 / 3])

    def test_keep_zero_score_keeps_all(self):
        p = MaxBRkNNProblem([(0, 0)], [(1, 0), (2, 0), (3, 0)], k=3)
        nlcs = build_nlcs(p, keep_zero_score=True)
        assert len(nlcs) == 3
        assert nlcs.levels.tolist() == [1, 2, 3]
        assert nlcs.r.tolist() == pytest.approx([1.0, 2.0, 3.0])

    def test_skewed_model_scores(self):
        p = MaxBRkNNProblem([(0, 0)], [(1, 0), (2, 0)], k=2,
                            probability=[0.8, 0.2])
        nlcs = build_nlcs(p)
        assert len(nlcs) == 2
        # Definition 2: score(c1) = 0.6, score(c2) = 0.2.
        by_level = dict(zip(nlcs.levels.tolist(), nlcs.scores.tolist()))
        assert by_level[1] == pytest.approx(0.6)
        assert by_level[2] == pytest.approx(0.2)

    def test_weights_scale_scores(self):
        p = MaxBRkNNProblem([(0, 0), (5, 0)], [(1, 0), (6, 0)], k=1,
                            weights=[2.0, 3.0])
        nlcs = build_nlcs(p)
        scores = {int(o): float(s) for o, s in zip(nlcs.owners,
                                                   nlcs.scores)}
        assert scores == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}

    def test_zero_weight_customer_dropped(self):
        p = MaxBRkNNProblem([(0, 0), (5, 0)], [(1, 0)], k=1,
                            weights=[0.0, 1.0])
        nlcs = build_nlcs(p)
        assert len(nlcs) == 1
        assert nlcs.owners.tolist() == [1]

    def test_per_object_models(self):
        models = [ProbabilityModel.of(0.8, 0.2),
                  ProbabilityModel.of(0.6, 0.4)]
        p = MaxBRkNNProblem([(0, 0), (5, 0)], [(1, 0), (2, 0)], k=2,
                            probability=models)
        nlcs = build_nlcs(p)
        scores = {(int(o), int(l)): float(s)
                  for o, l, s in zip(nlcs.owners, nlcs.levels, nlcs.scores)}
        assert scores[(0, 1)] == pytest.approx(0.6)
        assert scores[(0, 2)] == pytest.approx(0.2)
        assert scores[(1, 1)] == pytest.approx(0.2)
        assert scores[(1, 2)] == pytest.approx(0.4)

    def test_score_rows_match_per_customer_loop(self, rng):
        """Rows filled per distinct model object equal the per-customer
        fill, bit for bit, in the batch and the streamed build (models
        shared by several customers, and equal models that are distinct
        objects)."""
        pool = [ProbabilityModel.of(0.8, 0.2), ProbabilityModel.of(0.6, 0.4),
                ProbabilityModel.of(0.6, 0.4), ProbabilityModel.uniform(2)]
        models = [pool[i] for i in rng.integers(0, len(pool), 300)]
        weights = rng.uniform(0.5, 1.5, 300)
        problem = MaxBRkNNProblem(rng.random((300, 2)), rng.random((12, 2)),
                                  k=2, weights=weights, probability=models)
        expected = np.array([m.scores(1.0) for m in models]) * weights[:, None]
        nlcs = build_nlcs(problem, keep_zero_score=True)
        assert nlcs.scores.tobytes() == expected.reshape(-1).tobytes()
        with build_nlcs_streaming(problem, store="ram", chunk_size=64,
                                  keep_zero_score=True) as owner:
            streamed = nlc_store.attach(owner.handle)
            assert streamed.scores.tobytes() == nlcs.scores.tobytes()
            assert streamed.r.tobytes() == nlcs.r.tobytes()
            nlc_store.detach()

    def test_customer_on_site_zero_radius(self):
        p = MaxBRkNNProblem([(1.0, 1.0)], [(1.0, 1.0), (5, 5)], k=1)
        nlcs = build_nlcs(p)
        assert nlcs.r[0] == 0.0


class TestStreamNlcChunks:
    @pytest.fixture
    def chunks(self, rng):
        customers = rng.random((30, 2))
        return [customers[i:i + 10] for i in range(0, 30, 10)]

    def test_weight_chunks_pair_with_customer_chunks(self, rng, chunks):
        sites = rng.random((6, 2))
        weights = [np.full(10, float(j + 1)) for j in range(3)]
        out = list(stream_nlc_chunks(chunks, sites, 1,
                                     weight_chunks=iter(weights)))
        assert [chunk[3].tolist() for chunk in out] == [
            w.tolist() for w in weights]

    def test_fewer_weight_chunks_is_an_error(self, rng, chunks):
        weights = [np.ones(10)] * 2
        with pytest.raises(ValueError, match="fewer weight chunks"):
            list(stream_nlc_chunks(chunks, rng.random((6, 2)), 1,
                                   weight_chunks=weights))

    def test_more_weight_chunks_is_an_error(self, rng, chunks):
        weights = [np.ones(10)] * 4
        with pytest.raises(ValueError, match="more weight chunks"):
            list(stream_nlc_chunks(chunks, rng.random((6, 2)), 1,
                                   weight_chunks=weights))


class TestNlcSpace:
    def test_space_covers_all_circles(self, small_k2_problem):
        nlcs = build_nlcs(small_k2_problem)
        space = nlc_space(nlcs)
        box = nlcs.bounding_box()
        assert space.contains_rect(box)
        assert space.area > box.area  # strictly expanded
