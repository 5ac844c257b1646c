"""Tests for tile-sharded Phase I: exactness, bounds, both exec modes."""

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.engine import ShardedMaxFirst, tile_grid
from repro.engine.outofcore import run_tile
from repro.geometry.rect import Rect


def _problem(n_customers, n_sites, k=1, seed=0, distribution="uniform"):
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          distribution, seed=seed)
    return MaxBRkNNProblem(customers, sites, k=k)


def _region_keys(result):
    return sorted(tuple(int(i) for i in r.cover) for r in result.regions)


class TestTileGrid:
    def test_partition_is_exact(self):
        space = Rect(0.0, 0.0, 4.0, 2.0)
        tiles = tile_grid(space, 4)
        assert len(tiles) == 4
        assert sum(t.area for t in tiles) == pytest.approx(space.area)
        for t in tiles:
            assert t.xmin >= space.xmin and t.xmax <= space.xmax
            assert t.ymin >= space.ymin and t.ymax <= space.ymax

    def test_single_tile_is_the_space(self):
        space = Rect(0.0, 0.0, 1.0, 1.0)
        assert tile_grid(space, 1) == (space,)

    def test_two_tiles_split_one_axis(self):
        tiles = tile_grid(Rect(0.0, 0.0, 1.0, 1.0), 2)
        assert len(tiles) == 2

    @pytest.mark.parametrize("shards", [3, 5, 7, 11])
    def test_awkward_counts_round_up_and_cover(self, shards):
        """Counts that don't factor into the grid must never leave gaps:
        the full grid is emitted (>= shards tiles) and tiles the space."""
        space = Rect(0.0, 0.0, 3.0, 2.0)
        tiles = tile_grid(space, shards)
        assert len(tiles) >= shards
        assert sum(t.area for t in tiles) == pytest.approx(space.area)
        # Probe a lattice of interior points: each must land in a tile.
        for px in np.linspace(space.xmin, space.xmax, 17):
            for py in np.linspace(space.ymin, space.ymax, 17):
                assert any(t.xmin <= px <= t.xmax and t.ymin <= py <= t.ymax
                           for t in tiles)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            tile_grid(Rect(0, 0, 1, 1), 0)


class TestValidation:
    def test_top_t_rejected(self):
        with pytest.raises(ValueError, match="top_t"):
            ShardedMaxFirst(shards=2, top_t=2)

    def test_bad_mode_rejected(self):
        for mode in ("threads", "process"):
            with pytest.raises(ValueError, match="mode"):
                ShardedMaxFirst(mode=mode)

    def test_bad_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedMaxFirst(shards=0)

    def test_external_bound_needs_top_t_1(self):
        problem = _problem(30, 4, seed=3)
        nlcs = build_nlcs(problem)
        solver = MaxFirst(top_t=2)
        with pytest.raises(ValueError, match="top_t"):
            solver.run_phase1(nlcs, nlc_space(nlcs), initial_bound=1.0)


class TestShardedExactness:
    """Sharded runs must be score- and region-identical to the
    single-process batched run (the ISSUE's acceptance criterion)."""

    @pytest.mark.parametrize("shards", [2, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_serial_identity(self, shards, seed):
        problem = _problem(70, 8, k=2, seed=seed)
        single = MaxFirst().solve(problem)
        sharded = ShardedMaxFirst(shards=shards, mode="serial")
        result = sharded.solve(problem)
        assert result.score == single.score  # bit-identical
        assert _region_keys(result) == _region_keys(single)

    def test_process_identity(self):
        problem = _problem(60, 6, k=1, seed=5)
        single = MaxFirst().solve(problem)
        with ShardedMaxFirst(shards=4, mode="pool",
                             sync_interval=64) as sharded:
            result = sharded.solve(problem)
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)

    def test_clustered_distribution(self):
        problem = _problem(80, 8, k=2, seed=9, distribution="clustered")
        single = MaxFirst().solve(problem)
        result = ShardedMaxFirst(shards=4, mode="serial").solve(problem)
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)

    def test_corner_cluster_awkward_shard_count(self):
        """Regression: with shards=5 the old grid dropped its last cell,
        so mass clustered in the top-right corner was never searched and
        the sharded score fell below the true optimum."""
        rng = np.random.default_rng(17)
        customers = np.column_stack(
            [rng.uniform(0.8, 1.0, 40), rng.uniform(0.8, 1.0, 40)])
        sites = np.column_stack(
            [rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 6)])
        problem = MaxBRkNNProblem(customers, sites, k=1)
        single = MaxFirst().solve(problem)
        result = ShardedMaxFirst(shards=5, mode="serial").solve(problem)
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)

    def test_backend_option_reaches_every_tile(self, monkeypatch):
        """Each tile builds its backend inside ``run_phase1``, so
        ``backend="rtree"`` applies per tile, as in serial mode, and the
        answer still matches the single-process run."""
        import repro.core.maxfirst as maxfirst_module

        built = []
        make_backend = maxfirst_module.make_backend

        def recording(name, nlcs, graze_tol=0.0):
            built.append(name)
            return make_backend(name, nlcs, graze_tol=graze_tol)

        problem = _problem(60, 6, k=2, seed=3)
        single = MaxFirst(backend="rtree").solve(problem)
        sharded = ShardedMaxFirst(shards=4, mode="tiles", backend="rtree")
        tiles = sharded.plan(build_nlcs(problem)).n_shards
        monkeypatch.setattr(maxfirst_module, "make_backend", recording)
        result = sharded.solve(problem)
        assert built == ["rtree"] * tiles
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)

    def test_one_shard_degenerates_to_single(self):
        problem = _problem(50, 6, seed=2)
        single = MaxFirst().solve(problem)
        result = ShardedMaxFirst(shards=1).solve(problem)
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)
        assert result.stats.as_dict() == single.stats.as_dict()

    def test_degenerate_instance(self):
        problem = MaxBRkNNProblem([(0, 0)], [(1, 1)], weights=[0.0])
        result = ShardedMaxFirst(shards=4, mode="serial").solve(problem)
        assert result.score == 0.0
        assert result.regions == ()

    def test_empty_nlcs_rejected(self):
        problem = MaxBRkNNProblem([(0, 0)], [(1, 1)], weights=[0.0])
        nlcs = build_nlcs(problem)
        with pytest.raises(ValueError, match="empty"):
            ShardedMaxFirst(shards=2).solve_nlcs(nlcs)

    @pytest.mark.parametrize("mode", ["serial", "tiles"])
    def test_plan_over_other_rows_rejected(self, mode):
        """A plan's halos name rows of the set it was made over.  Run
        over the first 100 customers' NLCs and then executed with all
        300, it once solved to 23.0 where the optimum is 62.0."""
        problem = _problem(300, 12, k=1, seed=4)
        nlcs = build_nlcs(problem)
        head = build_nlcs(MaxBRkNNProblem(problem.customers[:100],
                                          problem.sites, k=1))
        assert MaxFirst().solve_nlcs(nlcs).score == 62.0
        with ShardedMaxFirst(shards=4, mode=mode) as solver:
            plan = solver.plan(head)
            with pytest.raises(ValueError, match="100 rows.* 300"):
                solver.execute(nlcs, plan)


class TestProcessFallback:
    """A pool that breaks mid-run (worker OOM-killed) must degrade to the
    identical serial computation in auto mode, and surface a clear error
    when processes were explicitly requested."""

    @staticmethod
    def _break_pool(monkeypatch, solver):
        from concurrent.futures.process import BrokenProcessPool

        def boom(nlcs, plan):
            raise BrokenProcessPool("worker died")

        monkeypatch.setattr(solver, "_execute_processes", boom)
        monkeypatch.setattr("os.cpu_count", lambda: 4)

    def test_auto_mode_falls_back_serial(self, monkeypatch):
        problem = _problem(50, 6, seed=4)
        single = MaxFirst().solve(problem)
        solver = ShardedMaxFirst(shards=4, mode="auto")
        self._break_pool(monkeypatch, solver)
        result = solver.solve(problem)
        assert result.score == single.score
        assert _region_keys(result) == _region_keys(single)

    def test_explicit_process_mode_raises(self, monkeypatch):
        problem = _problem(50, 6, seed=4)
        solver = ShardedMaxFirst(shards=4, mode="pool")
        self._break_pool(monkeypatch, solver)
        with pytest.raises(RuntimeError, match="unavailable"):
            solver.solve(problem)


class TestBoundExchange:
    def test_later_shards_prune_with_earlier_bounds(self):
        """Serial mode hands each tile the best bound so far; the summed
        Phase I work must never exceed (and usually undercuts) the sum of
        independent per-tile runs with no bound sharing."""
        problem = _problem(90, 8, k=2, seed=13)
        nlcs = build_nlcs(problem)
        solver = ShardedMaxFirst(shards=4, mode="serial")
        plan = solver.plan(nlcs)
        shared = solver.execute(nlcs, plan)
        shared_pops = sum(o.stats["generated"] for o in shared)

        # Re-run every tile through the per-tile executor as an
        # independent shard: it keeps the plan's seed bound, but shares
        # no bound and no seed covers with the other tiles.
        independent_pops = 0
        with nlc_store.publish(nlcs, "ram") as owner:
            for i, (tile, window, halo) in enumerate(zip(
                    plan.tiles, plan.windows, plan.halos)):
                out = run_tile(owner.handle, i, tile, window, halo,
                               plan.resolution, {},
                               lambda local: max(local, plan.seed_bound),
                               0, [], scores_nonneg=plan.scores_nonneg)
                independent_pops += out.stats["generated"]
        assert shared_pops <= independent_pops

    def test_initial_bound_prunes(self):
        problem = _problem(60, 6, k=1, seed=7)
        nlcs = build_nlcs(problem)
        space = nlc_space(nlcs)
        solver = MaxFirst()
        _, score, base = solver.run_phase1(nlcs, space)
        # Seeding with the known optimum can only shrink the search.
        _, score2, seeded = solver.run_phase1(nlcs, space,
                                              initial_bound=score)
        assert score2 == score
        assert seeded.generated <= base.generated

    def test_plan_drops_unreachable_tiles(self):
        # NLCs in two opposite corners: the tiles between get no
        # candidates.
        problem = MaxBRkNNProblem(
            [(0.01, 0.01), (0.02, 0.02), (0.98, 0.98), (0.99, 0.99)],
            [(0.05, 0.05), (0.95, 0.95)])
        nlcs = build_nlcs(problem)
        solver = ShardedMaxFirst(shards=16, mode="serial")
        plan = solver.plan(nlcs)
        assert plan.n_shards < 16
        for count in plan.candidate_counts:
            assert count > 0
