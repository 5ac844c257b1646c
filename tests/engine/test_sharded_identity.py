"""Cross-mode identity properties of zero-copy sharded Phase I.

The acceptance bar for the sharded engine: the *same* scores, regions,
and merged work counters regardless of how the tiles execute —
unsharded, serial in-process, or on the persistent worker pool — plus
exception-safe cleanup of the pool's store file.
"""

import pickle

import pytest

from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.engine import ShardedMaxFirst, run_pipeline
from repro.engine.pool import PersistentPool
from repro.obs import metrics as obs_metrics

from tests.store.test_backends import _store_files


def _problem(k, seed=0, n_customers=80, n_sites=8):
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          "uniform", seed=seed)
    return MaxBRkNNProblem(customers, sites, k=k)


def _region_keys(result):
    return sorted(tuple(int(i) for i in r.cover) for r in result.regions)


def _work_only(counters):
    return {key: value for key, value in counters.items()
            if key not in obs_metrics.TRANSPORT_COUNTER_KEYS}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shards", [2, 5])
class TestFourWayIdentity:
    """unsharded == serial (unified) == tiles == pool, bit-for-bit."""

    def test_scores_and_regions(self, k, shards):
        problem = _problem(k, seed=k * 7 + shards)
        single = MaxFirst().solve(problem)
        results = {
            "serial": ShardedMaxFirst(shards=shards,
                                      mode="serial").solve(problem),
            "tiles": ShardedMaxFirst(shards=shards,
                                     mode="tiles").solve(problem),
        }
        with ShardedMaxFirst(shards=shards, mode="pool",
                             max_workers=1) as pooled:
            results["pool"] = pooled.solve(problem)
        for mode, result in results.items():
            assert result.score == single.score, mode
            assert _region_keys(result) == _region_keys(single), mode


class TestCounterIdentity:
    def test_tilewise_vs_pool_merged_counters(self):
        """With one worker the pool replays the tile-wise schedule, so
        every merged work counter matches exactly; only the transport
        counters (queued tasks, steals, slice views) may differ.  (The
        unified-frontier serial mode interleaves tiles on one heap, so
        its work counters legitimately differ — it does *less* work —
        while its results stay bit-identical.)"""
        problem = _problem(k=2, seed=13)
        _, tilewise = run_pipeline("maxfirst-sharded", problem,
                                   shards=4, mode="tiles")
        _, pooled = run_pipeline("maxfirst-sharded", problem,
                                 shards=4, mode="pool", max_workers=1)
        assert _work_only(tilewise.counters) == _work_only(pooled.counters)
        # Every worker tile attaches its row window as a slice view.  A
        # serial run plans identically and its merge attaches no more
        # windows than the pool's, so the workers' views are what the
        # pool adds on top: at least one per distinct window.
        _, serial = run_pipeline("maxfirst-sharded", problem,
                                 shards=4, mode="serial")
        windows = set(ShardedMaxFirst(shards=4).plan(
            build_nlcs(problem)).windows)
        assert pooled.counters["store_slice_views"] \
            >= serial.counters["store_slice_views"] + len(windows)

    def test_zero_nlc_bytes_pickled(self, monkeypatch):
        """Pool transport ships only the O(1) job tuple per tile: each
        pickled job is its halo bitmap plus a small fixed part, never
        the NLC payload, and its handle names a ``memmap`` store with
        no payload — under every ``REPRO_STORE``, ``ram`` included."""
        jobs = []
        submit = PersistentPool.submit

        def recording_submit(pool, job):
            jobs.append((job, len(pickle.dumps(job))))
            return submit(pool, job)

        monkeypatch.setattr(PersistentPool, "submit", recording_submit)
        problem = _problem(k=1, seed=4)
        _, report = run_pipeline("maxfirst-sharded", problem,
                                 shards=4, mode="pool", max_workers=1)
        nlc_bytes = 6 * 8 * report.meta["n_nlcs"]
        assert jobs and len(jobs) == report.counters["pool_tasks"]
        for job, size in jobs:
            handle, halo = job[1], job[4]
            assert handle[0] == "memmap" and handle[4] is None
            assert size <= len(halo) + 1024 < nlc_bytes


class TestPoolReuse:
    def test_pool_survives_repeated_solves(self):
        problem = _problem(k=2, seed=21)
        single = MaxFirst().solve(problem)
        with ShardedMaxFirst(shards=4, mode="pool",
                             max_workers=1) as solver:
            first = solver.solve(problem)
            second = solver.solve(problem)
        assert first.score == single.score
        assert second.score == single.score
        assert _region_keys(first) == _region_keys(second)

    def test_explicit_pool_recovers_after_worker_death(self):
        """A killed worker fails one explicit-mode solve; the broken
        executor is dropped, so the next solve runs on a fresh pool."""
        problem = _problem(k=2, seed=21)
        single = MaxFirst().solve(problem)
        before = _store_files()
        with ShardedMaxFirst(shards=4, mode="pool",
                             max_workers=1) as solver:
            solver.solve(problem)
            workers = solver._pool.executor()._processes
            for process in list(workers.values()):
                process.kill()
            with pytest.raises(RuntimeError,
                               match="pool-mode sharding unavailable"):
                solver.solve(problem)
            recovered = solver.solve(problem)
        assert recovered.score == single.score
        assert _store_files() == before


class TestExceptionSafety:
    def test_worker_failure_leaks_no_store_file_and_pool_recovers(self):
        problem = _problem(k=1, seed=9)
        before = _store_files()
        with ShardedMaxFirst(shards=4, mode="pool",
                             max_workers=1) as solver:
            solver._fail_tiles = frozenset({1})
            with pytest.raises(RuntimeError, match="injected failure"):
                solver.solve(problem)
            assert _store_files() == before
            # The pool stays usable after a tile failure.
            solver._fail_tiles = frozenset()
            result = solver.solve(problem)
        assert result.score == MaxFirst().solve(problem).score
        assert _store_files() == before
