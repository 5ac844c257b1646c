"""Cross-process counter merging: a tile-wise in-process run and a
one-worker pool run execute the same schedule and must report identical
merged work counters (acceptance criterion; transport counters are
mode-dependent by design and compared separately), and counters must
flow to the parent registry exactly once in every mode."""

import pytest

from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.engine import ShardedMaxFirst, run_pipeline
from repro.obs import metrics as obs_metrics


@pytest.fixture(scope="module")
def problem():
    customers, sites = synthetic_instance(300, 16, "uniform", seed=11)
    return MaxBRkNNProblem(customers, sites, k=1)


def _pool_counters(problem, shards):
    # max_workers=1 reproduces the tile-wise schedule (and hence the
    # seed-cover pruning) exactly; more workers keep results
    # bit-identical but shift work counters.
    try:
        _, report = run_pipeline("maxfirst-sharded", problem,
                                 shards=shards, mode="pool",
                                 max_workers=1)
    except RuntimeError as exc:
        pytest.skip(f"pool-mode sharding unavailable here: {exc}")
    return report.counters


def _work_only(counters):
    return {key: value for key, value in counters.items()
            if key not in obs_metrics.TRANSPORT_COUNTER_KEYS}


class TestTilewiseVsPool:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_identical_merged_counters(self, problem, shards):
        _, tilewise = run_pipeline("maxfirst-sharded", problem,
                                   shards=shards, mode="tiles")
        pool = _pool_counters(problem, shards)
        assert _work_only(tilewise.counters) == _work_only(pool)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_transport_counters_by_mode(self, problem, shards):
        views = {}
        for mode in ("serial", "tiles"):
            _, report = run_pipeline("maxfirst-sharded", problem,
                                     shards=shards, mode=mode)
            views[mode] = report.counters["store_slice_views"]
            # In-process execution never touches the pool transport
            # (in-process tiles do attach row windows as slice views).
            for key in obs_metrics.TRANSPORT_COUNTER_KEYS:
                if key == "store_slice_views":
                    continue
                assert report.counters[key] == 0, key
        pool = _pool_counters(problem, shards)
        # Pool execution publishes the NLC store once and queues one
        # task per tile; nothing is stolen with a single worker.
        assert pool["pool_tasks"] == report.counters["shard_tasks"]
        assert pool["tiles_stolen"] == 0
        # Every worker tile attaches its row window as a slice view.
        # The serial run plans identically and its merge attaches no
        # more windows than the pool's, so the workers' views are what
        # the pool adds on top: at least one per distinct window.
        windows = set(ShardedMaxFirst(shards=shards)
                      .plan(build_nlcs(problem)).windows)
        assert pool["store_slice_views"] >= views["serial"] + len(windows)

    def test_sharding_layer_counters_recorded(self, problem):
        _, report = run_pipeline("maxfirst-sharded", problem,
                                 shards=4, mode="serial")
        # 4 shards round to a full 2x2 grid; empty tiles are dropped at
        # planning time, so the task count is bounded by the grid.
        assert 1 <= report.counters["shard_tasks"] <= 4
        # Halo inclusion assigns every NLC to at least the tile(s) it
        # reaches, so assignments >= tasks on any non-trivial instance.
        assert report.counters["halo_assignments"] \
            >= report.counters["shard_tasks"]


class TestSingleFlow:
    @pytest.mark.parametrize("mode", ["serial", "tiles"])
    def test_tile_counts_enter_registry_exactly_once(self, problem, mode):
        """The shard counters reach the parent registry only via merge():
        the pipeline's delta equals the per-tile sums, not double."""
        before = obs_metrics.REGISTRY.snapshot()
        _, report = run_pipeline("maxfirst-sharded", problem,
                                 shards=2, mode=mode)
        delta = obs_metrics.REGISTRY.delta_since(before)
        assert delta.get("kernel_batches", 0) \
            == report.counters["kernel_batches"]

    def test_sharded_kernel_work_matches_outputs(self, problem):
        from repro.engine.sharded import ShardedMaxFirst
        from repro.core.nlc import build_nlcs

        solver = ShardedMaxFirst(shards=2, mode="serial")
        nlcs = build_nlcs(problem)
        plan = solver.plan(nlcs)
        outputs = solver.execute(nlcs, plan)
        per_tile = sum(out.obs_counters.get("kernel_batches", 0)
                       for out in outputs)
        before = obs_metrics.REGISTRY.snapshot()
        solver.merge(nlcs, outputs)
        delta = obs_metrics.REGISTRY.delta_since(before)
        assert delta.get("kernel_batches", 0) == per_tile
