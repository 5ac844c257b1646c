"""In-process QueryService: identity with direct queries, certificates,
error paths, registry lifecycle, counters."""

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.core.queries import (brknn_of_site, impact_of_new_site,
                                knn_sites, site_influence)
from repro.datasets.synthetic import synthetic_instance
from repro.obs import metrics as _obs_metrics
from repro.serve.instance import InstanceRegistry
from repro.serve.protocol import (BrknnRequest, BrknnResponse,
                                  ErrorResponse, ImpactRequest,
                                  ImpactResponse, SiteInfluenceRequest,
                                  SiteInfluenceResponse, SolveRequest,
                                  SolveResponse)
from repro.serve.service import QueryService


@pytest.fixture()
def service(serve_problem):
    with QueryService(store="ram") as service:
        service.publish(serve_problem)
        yield service


def _instance(service):
    return next(iter(service.registry))


class TestQueryIdentity:
    def test_brknn_matches_direct_call(self, service, serve_problem):
        ranks = knn_sites(serve_problem)
        instance_id = _instance(service).instance_id
        for site in range(serve_problem.n_sites):
            (response,) = service.execute(
                [BrknnRequest(instance_id, site)])
            direct = brknn_of_site(serve_problem, site, ranks=ranks)
            assert isinstance(response, BrknnResponse)
            assert response.site == direct.site
            assert response.members == dict(direct.members)
            assert response.influence == direct.influence

    def test_site_influence_matches_direct_call(self, service,
                                                serve_problem):
        instance_id = _instance(service).instance_id
        (response,) = service.execute(
            [SiteInfluenceRequest(instance_id)])
        direct = site_influence(serve_problem)
        assert isinstance(response, SiteInfluenceResponse)
        assert list(response.influence) == direct.tolist()

    def test_impact_matches_direct_call(self, service, serve_problem):
        instance_id = _instance(service).instance_id
        for x, y in ((25.0, 25.0), (50.0, 75.0), (90.0, 10.0)):
            (response,) = service.execute(
                [ImpactRequest(instance_id, x, y)])
            direct = impact_of_new_site(serve_problem, x, y)
            assert isinstance(response, ImpactResponse)
            assert response.gain == direct.gain
            assert response.customer_ranks == dict(direct.customer_ranks)
            assert response.incumbent_losses \
                == dict(direct.incumbent_losses)

    def test_solve_matches_direct_maxfirst(self, service):
        instance = _instance(service)
        (response,) = service.execute(
            [SolveRequest(instance.instance_id)])
        assert isinstance(response, SolveResponse)
        solver = MaxFirst(top_t=1)
        accepted, max_min, _stats = solver.run_phase1(
            instance.nlcs, instance.space)
        regions = solver.build_regions(accepted, max_min, instance.nlcs)
        assert response.score == max_min
        assert response.upper_bound == response.score
        assert {r.cover for r in response.regions} \
            == {tuple(int(i) for i in r.cover) for r in regions}

    def test_top_t_solve_reports_t_scores(self, service):
        instance_id = _instance(service).instance_id
        (response,) = service.execute(
            [SolveRequest(instance_id, top_t=3)])
        assert isinstance(response, SolveResponse)
        scores = sorted({r.score for r in response.regions},
                        reverse=True)
        # At most top_t distinct scores survive; the reported score is
        # the t-th-best Theorem 2 threshold, never above the best.
        assert 1 <= len(scores) <= 3
        assert max(scores) >= response.score > 0.0


class TestCertificate:
    def test_first_exact_solve_installs_certificate(self, service):
        instance = _instance(service)
        assert instance.certificate() == (0.0, ())
        (response,) = service.execute(
            [SolveRequest(instance.instance_id)])
        bound, seeds = instance.certificate()
        assert bound == response.score
        assert seeds  # accepted covers recorded for Theorem 3 seeding

    def test_seeded_resolve_returns_identical_answer(self, service):
        instance_id = _instance(service).instance_id
        (first,) = service.execute([SolveRequest(instance_id)])
        assert _instance(service).certificate()[0] == first.score
        # Drop the cached answer so the repeat really runs seeded.
        service.cache.clear()
        (second,) = service.execute([SolveRequest(instance_id)])
        assert isinstance(first, SolveResponse)
        assert second is not first
        # Score, upper bound, and every region's cover, score, area and
        # representative point: the seeded solve merges the skipped
        # regions back from the certificate, grown from the same
        # quadrants as the first solve's.
        assert second == first

    def test_certificate_survives_within_one_batch(self, service):
        instance_id = _instance(service).instance_id
        first, second = service.execute(
            [SolveRequest(instance_id), SolveRequest(instance_id)])
        assert second.score == first.score
        assert {r.cover for r in second.regions} \
            == {r.cover for r in first.regions}


class TestErrorPaths:
    def test_unknown_instance_gets_error_response(self, service):
        out = service.execute([BrknnRequest("nope", 0),
                               SolveRequest("nope")])
        assert all(isinstance(r, ErrorResponse) for r in out)
        assert all("unknown instance" in r.message for r in out)

    def test_bad_site_index_is_per_request(self, service, serve_problem):
        instance_id = _instance(service).instance_id
        bad, good = service.execute(
            [BrknnRequest(instance_id, serve_problem.n_sites + 5),
             BrknnRequest(instance_id, 0)])
        assert isinstance(bad, ErrorResponse)
        assert "out of range" in bad.message
        assert isinstance(good, BrknnResponse)


class TestRegistryLifecycle:
    def test_publish_retire_releases_store(self, serve_problem):
        registry = InstanceRegistry(store="ram")
        instance = registry.publish(serve_problem)
        assert registry.ids() == (instance.instance_id,)
        registry.retire(instance.instance_id)
        assert registry.ids() == ()
        with pytest.raises(ValueError, match="unknown instance"):
            registry.get(instance.instance_id)
        registry.close()

    @pytest.mark.parametrize("store", ["ram", "memmap"])
    def test_retire_keeps_sibling_instances_usable(self, serve_problem,
                                                   store):
        with QueryService(store=store) as service:
            first = service.publish(serve_problem)
            second = service.publish(serve_problem)
            assert "/" not in second.instance_id  # names no store file
            service.registry.retire(first.instance_id)
            (response,) = service.execute(
                [BrknnRequest(second.instance_id, 0)])
            assert isinstance(response, BrknnResponse)
            if store == "memmap":
                # The sibling's cached attachment survives the retire.
                assert (nlc_store.attach(second.owner.handle)
                        is second.nlcs)

    def test_close_is_idempotent(self, serve_problem):
        service = QueryService(store="ram")
        service.publish(serve_problem)
        service.close()
        service.close()

    def test_publish_runs_one_knn_search(self):
        """One kNN pass yields the NLC radii and the rank matrix; a
        second search for the ranks counted 2000 queries here."""
        customers, sites = synthetic_instance(1000, 50, "uniform", seed=3)
        problem = MaxBRkNNProblem(customers, sites, k=2)
        registry = InstanceRegistry(store="ram")
        try:
            with _obs_metrics.REGISTRY.isolated() as box:
                instance = registry.publish(problem)
            assert box["counters"]["nlc_build_queries"] == 1000
            expected = build_nlcs(problem)
            for field in ("cx", "cy", "r", "scores", "owners", "levels"):
                got = getattr(instance.nlcs, field)
                want = getattr(expected, field)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), field
            np.testing.assert_array_equal(instance.ranks,
                                          knn_sites(problem))
        finally:
            registry.close()

    def test_zero_weight_publish_keeps_ranks(self, serve_problem):
        problem = MaxBRkNNProblem(serve_problem.customers,
                                  serve_problem.sites, k=2,
                                  weights=[0.0] * serve_problem.n_customers)
        registry = InstanceRegistry(store="ram")
        try:
            instance = registry.publish(problem)
            assert len(instance.nlcs) == 0
            np.testing.assert_array_equal(instance.ranks,
                                          knn_sites(problem))
        finally:
            registry.close()


class TestCounters:
    def test_batch_and_request_counters(self, service):
        instance_id = _instance(service).instance_id
        with _obs_metrics.REGISTRY.isolated() as box:
            service.execute([BrknnRequest(instance_id, 0),
                             SiteInfluenceRequest(instance_id)])
            service.execute([ImpactRequest(instance_id, 5.0, 5.0)])
        counters = dict(box["counters"])  # filled when isolated() exits
        assert counters["serve_batches"] == 2
        assert counters["serve_requests"] == 3
