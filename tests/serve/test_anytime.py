"""The "solve_anytime" request: certified epsilon guarantees."""

import pytest

from repro.serve.protocol import (AnytimeSolveRequest, ErrorResponse,
                                  SolveRequest, SolveResponse)
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def solved(serve_problem):
    """Exact optimum + a spread of anytime answers on one instance.

    Publishes twice: the anytime instance is separate so its solves are
    not seeded by the exact instance's certificate (a seeded anytime
    solve would trivially start at the optimum).
    """
    with QueryService(store="ram") as service:
        exact_id = service.publish(serve_problem).instance_id
        (exact,) = service.execute([SolveRequest(exact_id)])
        anytime = {}
        for epsilon in (0.1, 0.5, 2.0):
            instance_id = service.publish(serve_problem).instance_id
            (response,) = service.execute(
                [AnytimeSolveRequest(instance_id, epsilon)])
            anytime[epsilon] = response
        return exact, anytime


class TestAnytimeGuarantees:
    def test_exact_solve_has_tight_bound(self, solved):
        exact, _ = solved
        assert isinstance(exact, SolveResponse)
        assert exact.upper_bound == exact.score > 0.0

    @pytest.mark.parametrize("epsilon", (0.1, 0.5, 2.0))
    def test_score_is_within_epsilon_of_upper_bound(self, solved,
                                                    epsilon):
        _, anytime = solved
        response = anytime[epsilon]
        assert isinstance(response, SolveResponse)
        assert response.upper_bound >= response.score > 0.0
        assert response.score * (1.0 + epsilon) + 1e-9 \
            >= response.upper_bound

    @pytest.mark.parametrize("epsilon", (0.1, 0.5, 2.0))
    def test_certified_approximation_of_true_optimum(self, solved,
                                                     epsilon):
        exact, anytime = solved
        response = anytime[epsilon]
        # The anytime answer never beats the optimum, and its certified
        # upper bound never undercuts it.
        assert response.score <= exact.score + 1e-9
        assert response.upper_bound >= exact.score - 1e-9
        assert response.score * (1.0 + epsilon) + 1e-9 >= exact.score

    def test_anytime_reports_at_least_one_region(self, solved):
        _, anytime = solved
        for response in anytime.values():
            assert response.regions
            # The best reported region attains the certified score (up
            # to the solver's tie tolerance).
            tol = 1e-9 * max(1.0, response.score)
            assert response.regions[0].score >= response.score - tol


class TestAnytimeErrors:
    def test_negative_epsilon_is_a_request_error(self, serve_problem):
        with QueryService(store="ram") as service:
            instance_id = service.publish(serve_problem).instance_id
            (response,) = service.execute(
                [AnytimeSolveRequest(instance_id, -0.5)])
            assert isinstance(response, ErrorResponse)
            assert "epsilon" in response.message

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_is_a_request_error(self, serve_problem,
                                                   epsilon):
        """In process, past the wire decoder: a NaN epsilon must not
        run as an exact solve."""
        with QueryService(store="ram") as service:
            instance_id = service.publish(serve_problem).instance_id
            (response,) = service.execute(
                [AnytimeSolveRequest(instance_id, epsilon)])
            assert isinstance(response, ErrorResponse)
            assert "epsilon" in response.message
