"""Tile searches over the plan's halos equal searches over the whole set.

:func:`plan_streamed` keeps each tile's halo as a bitmap over its row
window, and :func:`run_tile` searches just the halo rows, gathered into
a compact set: covers map back through the halo's store rows, and seed
covers from earlier tiles are translated onto halo positions, members
outside the halo included.  These cases pin that to full-set
references: the same tile schedule searched over the whole set, the
unsharded solve, and ``rects_intersecting`` per tile.
"""

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.core.region import found_regions
from repro.datasets.synthetic import synthetic_instance
from repro.engine import ShardedMaxFirst
from repro.engine.outofcore import plan_streamed, run_tiles, tile_grid
from repro.index.circleset import CircleSet
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import REGISTRY

SYNC_INTERVAL = 64


@pytest.fixture()
def published():
    """Publish NLC sets for one test; every store closes afterwards."""
    stores = []

    def _publish(nlcs, backend):
        owner = nlc_store.publish(nlcs, backend)
        stores.append(owner)
        return owner

    yield _publish
    nlc_store.detach()
    for owner in stores:
        owner.close()


def _synthetic(seed, k):
    customers, sites = synthetic_instance(200, 8, "uniform", seed=seed)
    return build_nlcs(MaxBRkNNProblem(customers, sites, k=k))


def _negative_outlier():
    """Positive disks around a best region whose cover holds a disk of
    score -1e-10 (the rounding slack ``ProbabilityModel`` admits): two
    unit-score disks overlap inside it, near one corner of the space,
    and small random disks fill the rest, away from that corner."""
    rng = np.random.default_rng(11)
    n = 60
    cx = np.concatenate([[0.1, 0.14, 0.12], rng.uniform(0.3, 1.0, n)])
    cy = np.concatenate([[0.1, 0.1, 0.1], rng.uniform(0.3, 1.0, n)])
    r = np.concatenate([[0.05, 0.05, 0.09], rng.uniform(0.01, 0.08, n)])
    scores = np.concatenate([[1.0, 1.0, -1e-10],
                             rng.uniform(0.1, 0.3, n)])
    return CircleSet(cx, cy, r, scores, owners=np.arange(n + 3),
                     levels=np.ones(n + 3, dtype=np.int64))


def _region_keys(result):
    return sorted(tuple(int(i) for i in r.cover) for r in result.regions)


def _full_set_tiles(nlcs, plan):
    """``run_tiles``' schedule searched over the whole set: each tile's
    root takes its halo's store rows as candidates, seed covers enter
    as store rows, and one best bound passes from tile to tile."""
    best = [plan.seed_bound]

    def sync(local):
        best[0] = max(best[0], local)
        return best[0]

    seeds = []
    outputs = []
    for i, tile in enumerate(plan.tiles):
        accepted, max_min, stats = MaxFirst().run_phase1(
            nlcs, tile, resolution=plan.resolution,
            initial_bound=sync(0.0), bound_sync=sync,
            sync_interval=SYNC_INTERVAL,
            seed_covers=[(cover, score) for cover, score, _ in seeds],
            roots=[(tile, plan.halo_rows(i))])
        sync(max_min)
        found = found_regions(accepted)
        seeds.extend(found)
        outputs.append((found, max_min, stats.as_dict()))
    return outputs


def _assert_halo_search_is_full_set_search(nlcs, plan, outputs):
    want = _full_set_tiles(nlcs, plan)
    for i, (out, (found, max_min, stats)) in enumerate(zip(outputs, want)):
        assert out.found == found, f"tile {i}"
        assert out.max_min == max_min, f"tile {i}"
        assert out.stats == stats, f"tile {i}"


def _solve_counting(solver, nlcs):
    before = REGISTRY.snapshot()
    result = solver.solve_nlcs(nlcs)
    counters = {key: value
                for key, value in REGISTRY.delta_since(before).items()
                if key not in obs_metrics.TRANSPORT_COUNTER_KEYS}
    return result, counters


def _assert_modes_agree(nlcs, shards):
    """Tiles and a one-worker pool merge equal work counters, and both
    report the unsharded solve's score and regions."""
    single = MaxFirst().solve_nlcs(nlcs)
    tiles, tile_counters = _solve_counting(
        ShardedMaxFirst(shards=shards, mode="tiles",
                        sync_interval=SYNC_INTERVAL), nlcs)
    with ShardedMaxFirst(shards=shards, mode="pool", max_workers=1,
                         sync_interval=SYNC_INTERVAL) as pooled:
        pool, pool_counters = _solve_counting(pooled, nlcs)
    assert tile_counters == pool_counters
    for result in (tiles, pool):
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)


class TestSeedCoversAcrossHalos:
    def test_partial_seed_covers_prune_as_over_the_whole_set(
            self, published):
        """Covers found in early tiles reach later tiles with members
        outside their halos; the translated seeds still prune, exactly
        as the same seeds do in a whole-set search of each tile."""
        nlcs = _synthetic(3, k=2)
        owner = published(nlcs, "memmap")
        plan = plan_streamed(owner.handle, 9)
        outputs = run_tiles(owner.handle, plan, {}, SYNC_INTERVAL)
        partial = 0
        seeds = []
        for i, out in enumerate(outputs):
            halo = set(plan.halo_rows(i).tolist())
            partial += sum(1 for cover, _, _ in seeds
                           if not halo.issuperset(cover)
                           and not halo.isdisjoint(cover))
            seeds.extend(out.found)
        assert partial > 0
        assert sum(out.stats["pruned_theorem3"]
                   for out in outputs[1:]) > 0
        _assert_halo_search_is_full_set_search(nlcs, plan, outputs)
        _assert_modes_agree(nlcs, 9)


class TestNegativeScores:
    def test_negative_disk_outside_a_halo(self, published):
        """The store's score signs, not a halo's, gate the Theorem 3
        score-sum exit; a negative disk that some tile's halo lacks
        leaves every mode's answer equal to the unsharded one."""
        nlcs = _negative_outlier()
        owner = published(nlcs, "ram")
        plan = plan_streamed(owner.handle, 4)
        assert not plan.scores_nonneg
        assert any(2 not in plan.halo_rows(i) for i in range(plan.n_shards))
        best = MaxFirst().solve_nlcs(nlcs)
        assert _region_keys(best) == [(0, 1, 2)]
        _assert_halo_search_is_full_set_search(
            nlcs, plan, run_tiles(owner.handle, plan, {}, SYNC_INTERVAL))
        _assert_modes_agree(nlcs, 4)


class TestDecodedHalos:
    @pytest.mark.parametrize("chunk_rows", [1, 17, None])
    @pytest.mark.parametrize("shards", [2, 9, 64])
    @pytest.mark.parametrize("instance", ["synthetic", "negative"])
    def test_halo_rows_equal_rects_intersecting(self, instance, shards,
                                                chunk_rows, published):
        nlcs = (_synthetic(5, k=3) if instance == "synthetic"
                else _negative_outlier())
        owner = published(nlcs, "memmap")
        options = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
        plan = plan_streamed(owner.handle, shards, **options)
        grid = tile_grid(plan.space, shards)
        assert plan.tiles == tuple(
            tile for tile, cand in zip(grid, nlcs.rects_intersecting(grid))
            if cand.shape[0])
        want = nlcs.rects_intersecting(plan.tiles)
        for i, (lo, hi) in enumerate(plan.windows):
            rows = plan.halo_rows(i)
            assert rows.dtype == np.int64
            np.testing.assert_array_equal(rows, want[i],
                                          err_msg=f"tile {i}")
            assert len(plan.halos[i]) == (hi - lo + 7) // 8
