"""Hot-path and backend agreement for the batched Phase I rewrite.

``hotpath="batched"`` (batched kernel calls, cover-identity bitsets,
vectorised refinement) must walk *exactly* the same search as
``hotpath="legacy"`` (the seed hot path): same optimum, same stats
counters.  Likewise the rewritten vector backend must agree with the
paper-literal R-tree backend.  These pin the perf work of
bench_phase1_hotpath.py to the seed semantics.
"""

import zlib

import numpy as np
import pytest

from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance

STAT_FIELDS = (
    "generated", "splits", "pruned_theorem2", "pruned_theorem3", "results",
    "point_splits", "intersection_checks", "refinement_checks",
    "pruned_refined", "resolution_closed", "max_depth",
)


def stats_dict(result):
    return {name: getattr(result.stats, name) for name in STAT_FIELDS}


def build(seed, n_customers=160, n_sites=14, distribution="uniform", k=1):
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          distribution, seed=seed)
    return build_nlcs(MaxBRkNNProblem(customers, sites, k=k))


class TestHotpathAgreement:
    @pytest.mark.parametrize("distribution", ["uniform", "normal",
                                              "clustered"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_batched_equals_legacy(self, distribution, k):
        # crc32, not hash(): str hashes are salted per process.
        seed = zlib.crc32(repr((distribution, k)).encode())
        nlcs = build(seed=seed, distribution=distribution, k=k)
        batched = MaxFirst(hotpath="batched").solve_nlcs(nlcs)
        legacy = MaxFirst(hotpath="legacy").solve_nlcs(nlcs)
        assert batched.score == legacy.score, f"seed={seed}"
        assert stats_dict(batched) == stats_dict(legacy), f"seed={seed}"

    @pytest.mark.parametrize("seed", range(6))
    def test_batched_equals_legacy_random(self, seed):
        nlcs = build(seed=seed * 7919 + 1)
        batched = MaxFirst(hotpath="batched").solve_nlcs(nlcs)
        legacy = MaxFirst(hotpath="legacy").solve_nlcs(nlcs)
        assert batched.score == legacy.score
        assert stats_dict(batched) == stats_dict(legacy)

    def test_top_t_regions_agree(self):
        nlcs = build(seed=424, n_customers=200, n_sites=16, k=2)
        batched = MaxFirst(hotpath="batched", top_t=3).solve_nlcs(nlcs)
        legacy = MaxFirst(hotpath="legacy", top_t=3).solve_nlcs(nlcs)
        assert [r.score for r in batched.regions] == \
            [r.score for r in legacy.regions]

    def test_unknown_hotpath_rejected(self):
        with pytest.raises(ValueError):
            MaxFirst(hotpath="turbo")


class TestBackendAgreement:
    """The rewritten vector backend against the paper-literal R-tree."""

    @pytest.mark.parametrize("distribution", ["uniform", "normal",
                                              "clustered"])
    def test_vector_equals_rtree(self, distribution):
        seed = zlib.crc32(repr(("backend", distribution)).encode())
        nlcs = build(seed=seed, distribution=distribution)
        vector = MaxFirst(backend="vector").solve_nlcs(nlcs)
        rtree = MaxFirst(backend="rtree").solve_nlcs(nlcs)
        assert vector.score == rtree.score, f"seed={seed}"

    @pytest.mark.parametrize("seed", range(4))
    def test_vector_equals_rtree_random_k2(self, seed):
        nlcs = build(seed=seed * 104729 + 3, k=2)
        vector = MaxFirst(backend="vector").solve_nlcs(nlcs)
        rtree = MaxFirst(backend="rtree").solve_nlcs(nlcs)
        assert vector.score == rtree.score
