"""Serve-path result cache.

Pins the tentpole invariants: a cache hit is **byte-identical** to the
fresh solve it replaced (on every storage backend; CI runs this file
under both kernel arms, with and without ``REPRO_NO_CKERNEL=1``), the
LRU evicts under byte pressure, and an epoch bump invalidates every
entry of the instance.
"""

import json

import pytest

from repro.obs import metrics as _obs_metrics
from repro.serve.cache import ResultCache
from repro.serve.protocol import (AnytimeSolveRequest, BrknnRequest,
                                  BrknnResponse, ErrorResponse,
                                  HeatmapRequest, ImpactRequest,
                                  SiteInfluenceRequest, SolveRequest,
                                  encode_response)
from repro.serve.service import QueryService

BACKENDS = ("ram", "memmap")


def _canonical(response) -> str:
    return json.dumps(encode_response(response), sort_keys=True,
                      separators=(",", ":"))


def _mixed_batch(instance_id):
    """One request of every kind — all distinct canonical keys."""
    return [
        BrknnRequest(instance_id, 1),
        SiteInfluenceRequest(instance_id),
        ImpactRequest(instance_id, 40.0, 60.0),
        SolveRequest(instance_id),
        AnytimeSolveRequest(instance_id, 0.5),
        HeatmapRequest(instance_id, nx=12, ny=12),
    ]


def _tiny_response(site: int) -> BrknnResponse:
    return BrknnResponse(site=site, members={}, influence=0.0)


class TestHitMissBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_answers_equal_fresh_bytes(self, backend,
                                              serve_problem):
        with QueryService(store=backend) as service:
            instance_id = service.publish(serve_problem).instance_id
            batch = _mixed_batch(instance_id)
            with _obs_metrics.REGISTRY.isolated() as box:
                fresh = service.execute(batch)
                cached = service.execute(batch)
        counters = dict(box["counters"])
        assert counters["serve_cache_misses"] == len(batch)
        assert counters["serve_cache_hits"] == len(batch)
        assert [_canonical(r) for r in cached] \
            == [_canonical(r) for r in fresh]
        assert cached == fresh

    def test_in_batch_duplicates_execute_once(self, serve_problem):
        with QueryService(store="ram") as service:
            instance_id = service.publish(serve_problem).instance_id
            request = BrknnRequest(instance_id, 2)
            with _obs_metrics.REGISTRY.isolated() as box:
                first, second, third = service.execute(
                    [request, request, request])
        counters = dict(box["counters"])
        # One miss for the whole batch; duplicates share the answer
        # without counting as hits (they never reached the cache).
        assert counters["serve_cache_misses"] == 1
        assert counters.get("serve_cache_hits", 0) == 0
        assert first == second == third

    def test_disabled_cache_never_hits(self, serve_problem):
        with QueryService(store="ram", cache_bytes=0) as service:
            instance_id = service.publish(serve_problem).instance_id
            batch = _mixed_batch(instance_id)
            with _obs_metrics.REGISTRY.isolated() as box:
                fresh = service.execute(batch)
                again = service.execute(batch)
            assert len(service.cache) == 0
        counters = dict(box["counters"])
        assert counters.get("serve_cache_hits", 0) == 0
        assert counters.get("serve_cache_misses", 0) == 0
        assert [_canonical(r) for r in again] \
            == [_canonical(r) for r in fresh]

    def test_error_responses_are_not_cached(self, serve_problem):
        with QueryService(store="ram") as service:
            instance_id = service.publish(serve_problem).instance_id
            bad = BrknnRequest(instance_id,
                               serve_problem.n_sites + 99)
            with _obs_metrics.REGISTRY.isolated() as box:
                (first,) = service.execute([bad])
                (second,) = service.execute([bad])
        assert isinstance(first, ErrorResponse)
        assert isinstance(second, ErrorResponse)
        counters = dict(box["counters"])
        assert counters["serve_cache_misses"] == 2
        assert counters.get("serve_cache_hits", 0) == 0


class TestLRUEviction:
    def _entry_bytes(self) -> int:
        probe = ResultCache(max_bytes=1 << 20)
        probe.put("i", "k", 0, _tiny_response(0))
        return probe.nbytes

    def test_evicts_least_recently_used_under_byte_pressure(self):
        entry = self._entry_bytes()
        cache = ResultCache(max_bytes=3 * entry)
        with _obs_metrics.REGISTRY.isolated() as box:
            for i in range(4):
                cache.put("i", f"k{i}", 0, _tiny_response(i))
            assert len(cache) == 3
            assert cache.nbytes <= cache.max_bytes
            assert cache.get("i", "k0", 0) is None     # oldest evicted
            # Touch k1 so k2 becomes the LRU, then overflow again.
            assert cache.get("i", "k1", 0) is not None
            cache.put("i", "k4", 0, _tiny_response(4))
            assert cache.get("i", "k2", 0) is None
            assert cache.get("i", "k1", 0) is not None
        counters = dict(box["counters"])
        assert counters["serve_cache_evictions"] == 2

    def test_oversized_entry_is_skipped(self):
        cache = ResultCache(max_bytes=8)   # smaller than any entry
        cache.put("i", "k", 0, _tiny_response(0))
        assert len(cache) == 0
        assert cache.get("i", "k", 0) is None


class TestEpochInvalidation:
    def test_stale_epoch_drops_entry(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("i", "k", 0, _tiny_response(0))
        assert cache.get("i", "k", 1) is None      # epoch moved on
        assert len(cache) == 0                     # entry dropped
        assert cache.get("i", "k", 0) is None      # gone for good

    def test_epoch_bump_forces_recompute_with_identical_answer(
            self, serve_problem):
        with QueryService(store="ram") as service:
            instance = service.publish(serve_problem)
            batch = _mixed_batch(instance.instance_id)
            with _obs_metrics.REGISTRY.isolated() as box:
                fresh = service.execute(batch)
                instance.bump_epoch()
                replayed = service.execute(batch)
        counters = dict(box["counters"])
        assert counters["serve_cache_misses"] == 2 * len(batch)
        assert counters.get("serve_cache_hits", 0) == 0
        # The data did not actually change, so the recomputation must
        # reproduce the first answers bit for bit.
        assert [_canonical(r) for r in replayed] \
            == [_canonical(r) for r in fresh]

    def test_invalidate_clears_only_that_instance(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("a", "k", 0, _tiny_response(0))
        cache.put("b", "k", 0, _tiny_response(1))
        cache.invalidate("a")
        assert cache.get("a", "k", 0) is None
        assert cache.get("b", "k", 0) is not None

