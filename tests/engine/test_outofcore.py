"""Exactness of the out-of-core tier (:mod:`repro.engine.outofcore`).

The acceptance bar: a streamed, window-at-a-time solve over a published
store replays ``ShardedMaxFirst(mode="tiles")`` bit for bit — scores,
region covers, areas, AND the merged Phase I stats — and its chunked
planning scans reproduce the full-set space, tile halos and seed bound
exactly, whatever the chunk size.
"""

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.engine.outofcore import plan_streamed, solve_streamed, tile_grid
from repro.engine.sharded import ShardedMaxFirst
from repro.index.circleset import CircleSet

BACKENDS = ("ram", "memmap")


def _nlcs(k, seed, n_customers=300, n_sites=10):
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          "uniform", seed=seed)
    return build_nlcs(MaxBRkNNProblem(customers, sites, k=k))


def _region_keys(result):
    return sorted(tuple(int(i) for i in r.cover) for r in result.regions)


@pytest.fixture(autouse=True)
def _drop_attachments():
    yield
    nlc_store.detach()


@pytest.fixture()
def published(request):
    """One published store per test, closed afterwards."""
    stores = []

    def _publish(nlcs, backend):
        owner = nlc_store.publish(nlcs, backend)
        stores.append(owner)
        return owner

    yield _publish
    nlc_store.detach()
    for owner in stores:
        owner.close()


def _assert_same_result(streamed, reference, context=""):
    assert streamed.score == reference.score, context
    assert _region_keys(streamed) == _region_keys(reference), context
    assert ([r.area for r in streamed.regions]
            == [r.area for r in reference.regions]), context
    assert streamed.stats.as_dict() == reference.stats.as_dict(), context


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shards", [2, 5])
class TestStreamedIdentity:
    def test_matches_tiles_mode(self, k, shards, published):
        """Streamed == in-RAM tiles mode, down to the merged stats."""
        nlcs = _nlcs(k, seed=k * 11 + shards)
        tiles = ShardedMaxFirst(shards=shards, mode="tiles").solve_nlcs(nlcs)
        owner = published(nlcs, "memmap")
        streamed = solve_streamed(owner.handle, shards=shards)
        _assert_same_result(streamed, tiles, f"k={k} shards={shards}")


class TestBackendAxis:
    def test_identical_across_backends(self, published):
        nlcs = _nlcs(k=2, seed=29)
        tiles = ShardedMaxFirst(shards=4, mode="tiles").solve_nlcs(nlcs)
        for backend in BACKENDS:
            owner = published(nlcs, backend)
            streamed = solve_streamed(owner.handle, shards=4)
            _assert_same_result(streamed, tiles, backend)


class TestPlanParity:
    @pytest.mark.parametrize("shards", [2, 5])
    def test_plan_matches_inram_planner(self, shards, published):
        nlcs = _nlcs(k=2, seed=17)
        owner = published(nlcs, "memmap")
        streamed = plan_streamed(owner.handle, shards, chunk_rows=17)
        space = nlc_space(nlcs)
        assert streamed.space == space
        assert streamed.resolution == (max(space.width, space.height)
                                       * MaxFirst().resolution_fraction)
        grid = tile_grid(space, shards)
        kept = [(tile, cand) for tile, cand
                in zip(grid, nlcs.rects_intersecting(grid))
                if cand.shape[0]]
        assert streamed.tiles == tuple(tile for tile, _ in kept)
        roots = nlcs.classify_rects(list(streamed.tiles),
                                    graze_tol=streamed.resolution)
        assert streamed.seed_bound == max(root[3] for root in roots)
        assert len(streamed.windows) == len(kept)
        for (lo, hi), (_, cand), count in zip(streamed.windows, kept,
                                              streamed.candidate_counts):
            assert lo == int(cand[0])
            assert hi == int(cand[-1]) + 1
            assert count == cand.shape[0]

    def test_chunked_scans_are_chunk_size_invariant(self, published):
        """A 17-row chunked plan equals the single-chunk plan exactly:
        float min/max unions and window accumulation commute."""
        nlcs = _nlcs(k=1, seed=5)
        owner = published(nlcs, "memmap")
        whole = plan_streamed(owner.handle, 4)
        chunked = plan_streamed(owner.handle, 4, chunk_rows=17)
        assert chunked == whole

    def test_precomputed_plan_reused(self, published):
        nlcs = _nlcs(k=1, seed=8)
        owner = published(nlcs, "memmap")
        plan = plan_streamed(owner.handle, 4)
        fresh = solve_streamed(owner.handle, shards=4)
        replay = solve_streamed(owner.handle, plan=plan)
        _assert_same_result(replay, fresh)
        assert replay.timings["plan"] < fresh.timings["plan"]


class TestGlobalIndices:
    def test_covers_are_store_row_indices(self, published):
        """Slice-local covers translate back: the streamed regions name
        the same global NLC rows as an unsharded solve."""
        customers, sites = synthetic_instance(300, 10, "uniform", seed=41)
        problem = MaxBRkNNProblem(customers, sites, k=2)
        single = MaxFirst().solve(problem)
        owner = published(build_nlcs(problem), "memmap")
        streamed = solve_streamed(owner.handle, shards=5)
        assert streamed.score == single.score
        assert _region_keys(streamed) == _region_keys(single)


class TestValidation:
    def test_empty_store_rejected(self, published):
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        owner = published(CircleSet(empty_f, empty_f, empty_f, empty_f,
                                    owners=empty_i, levels=empty_i), "ram")
        with pytest.raises(ValueError, match="empty NLC store"):
            plan_streamed(owner.handle, 2)

    def test_bad_parameters_rejected(self, published):
        owner = published(_nlcs(k=1, seed=1), "ram")
        with pytest.raises(ValueError, match="shards"):
            plan_streamed(owner.handle, 0)
        with pytest.raises(ValueError, match="chunk_rows"):
            plan_streamed(owner.handle, 2, chunk_rows=0)
        with pytest.raises(ValueError, match="top_t"):
            solve_streamed(owner.handle, top_t=3)
