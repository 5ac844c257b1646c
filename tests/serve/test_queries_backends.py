"""Query operators against every NLC storage backend.

The served instance hands ``repro.core.queries`` and MaxFirst the
*attached view* of whichever backend published the NLC arrays — these
tests pin that every backend answers every request kind ("brknn",
"site_influence", "impact", "solve", "solve_anytime") bit-identically
to the in-RAM reference, under both kernel arms (CI runs this file with
and without ``REPRO_NO_CKERNEL=1``).
"""

import pytest

from repro.store import STORE_NAMES
from repro.serve.protocol import (AnytimeSolveRequest, BrknnRequest,
                                  ErrorResponse, ImpactRequest,
                                  SiteInfluenceRequest, SolveRequest)
from repro.serve.service import QueryService

BACKENDS = ("ram", "memmap")


def _all_kind_batch(instance_id):
    return [
        BrknnRequest(instance_id, 3),
        SiteInfluenceRequest(instance_id),
        ImpactRequest(instance_id, 45.0, 55.0),
        SolveRequest(instance_id),
        SolveRequest(instance_id, top_t=2),
        AnytimeSolveRequest(instance_id, 0.5),
    ]


@pytest.fixture(scope="module")
def reference_answers(serve_problem):
    with QueryService(store="ram") as service:
        instance_id = service.publish(serve_problem).instance_id
        return service.execute(_all_kind_batch(instance_id))


class TestBackendsAnswerIdentically:
    def test_every_backend_is_registered(self):
        assert set(BACKENDS) <= set(STORE_NAMES)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_request_kinds_match_ram_reference(
            self, backend, serve_problem, reference_answers):
        with QueryService(store=backend) as service:
            instance = service.publish(serve_problem)
            assert instance.store == backend
            answers = service.execute(
                _all_kind_batch(instance.instance_id))
        assert not any(isinstance(a, ErrorResponse) for a in answers)
        assert answers == reference_answers

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_certificate_seeding_per_backend(self, backend,
                                             serve_problem):
        """A seeded re-solve on each backend reproduces the first
        solve's answer exactly (Theorem-2/3 registry over the store)."""
        with QueryService(store=backend) as service:
            instance = service.publish(serve_problem)
            (first,) = service.execute(
                [SolveRequest(instance.instance_id)])
            bound, _seeds = instance.certificate()
            assert bound == first.score
            (second,) = service.execute(
                [SolveRequest(instance.instance_id)])
        assert second == first
