"""Backend-axis identity: every storage backend, the same answer.

The CI ``REPRO_STORE=memmap`` matrix arm runs this file by name: the
assertions must hold whatever backend the environment resolves, and the
explicit ``store=`` axis below proves ram / memmap interchange
bit-for-bit — through the pipeline, through the streaming NLC build,
and on the degenerate instances (zero customers, all-zero weights, a
single chunk smaller than ``chunk_size``).
"""

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.nlc import (build_nlcs, build_nlcs_streaming,
                            stream_nlc_chunks)
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import synthetic_instance
from repro.engine import run_pipeline
from repro.store.base import soa_arrays

BACKENDS = ("ram", "memmap")


def _problem(k=2, seed=0, n_customers=80, n_sites=8):
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          "uniform", seed=seed)
    return MaxBRkNNProblem(customers, sites, k=k)


def _region_keys(result):
    return sorted(tuple(int(i) for i in r.cover) for r in result.regions)


@pytest.fixture(autouse=True)
def _drop_attachments():
    yield
    nlc_store.detach()


class TestPipelineBackendAxis:
    @pytest.mark.parametrize("mode", ["tiles", "pool"])
    def test_identical_results_across_backends(self, mode):
        """One pipeline run per backend: scores, covers and areas agree
        exactly — the store is a transport, never part of the answer."""
        problem = _problem(k=2, seed=31)
        reference = None
        for backend in BACKENDS:
            options = dict(shards=4, mode=mode, store=backend)
            if mode == "pool":
                options["max_workers"] = 1
            result, report = run_pipeline("maxfirst-sharded", problem,
                                          **options)
            assert report.meta["store"] == backend
            if reference is None:
                reference = result
                continue
            assert result.score == reference.score, backend
            assert _region_keys(result) == _region_keys(reference), backend
            assert ([r.area for r in result.regions]
                    == [r.area for r in reference.regions]), backend


class TestStreamingBuildBackendAxis:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streamed_build_matches_inram(self, backend):
        problem = _problem(k=2, seed=12, n_customers=90)
        inram = build_nlcs(problem)
        with build_nlcs_streaming(problem, store=backend,
                                  chunk_size=32) as owner:
            assert owner.length == len(inram)
            assert owner.capacity == problem.n_customers * problem.k
            attached = nlc_store.attach(owner.handle)
            for got, want in zip(soa_arrays(attached), soa_arrays(inram)):
                np.testing.assert_array_equal(got, want)
            nlc_store.detach()


@pytest.mark.parametrize("backend", BACKENDS)
class TestDegenerateInstances:
    def test_zero_customers(self, backend):
        """``MaxBRkNNProblem`` rejects empty instances up front, so the
        zero-customer case lives at the chunk-stream layer: an empty
        customer stream seals an empty store on every backend."""
        _, sites = synthetic_instance(8, 8, "uniform", seed=2)
        writer = nlc_store.writer(0, backend)
        for chunk in stream_nlc_chunks(
                iter([np.empty((0, 2), dtype=np.float64)]), sites, k=2):
            writer.append(chunk)
        with writer.finalize() as owner:
            assert owner.length == 0
            assert owner.capacity == 0
            assert len(nlc_store.attach(owner.handle)) == 0
            nlc_store.detach()

    def test_all_zero_weights(self, backend):
        customers, sites = synthetic_instance(40, 6, "uniform", seed=3)
        problem = MaxBRkNNProblem(customers, sites, k=2,
                                  weights=np.zeros(len(customers)))
        assert len(build_nlcs(problem)) == 0
        with build_nlcs_streaming(problem, store=backend) as owner:
            # Every disk would score zero, so the build short-circuits
            # before the kNN pass and reserves nothing.
            assert owner.length == 0
            assert owner.capacity == 0
            assert len(nlc_store.attach(owner.handle)) == 0
            nlc_store.detach()

    def test_single_chunk_smaller_than_chunk_size(self, backend):
        problem = _problem(k=1, seed=6, n_customers=50)
        inram = build_nlcs(problem)
        with build_nlcs_streaming(problem, store=backend,
                                  chunk_size=65536) as owner:
            assert owner.length == len(inram)
            attached = nlc_store.attach(owner.handle)
            for got, want in zip(soa_arrays(attached), soa_arrays(inram)):
                np.testing.assert_array_equal(got, want)
            nlc_store.detach()
