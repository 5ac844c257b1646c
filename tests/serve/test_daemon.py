"""HTTP daemon + client: in-process server thread, real sockets."""

import json
import threading
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.core.probability import ProbabilityModel
from repro.core.queries import brknn_of_site, impact_of_new_site
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon, problem_from_doc
from repro.serve.protocol import (BrknnRequest, BrknnResponse,
                                  ErrorResponse, ImpactRequest,
                                  ImpactResponse, SolveRequest,
                                  SolveResponse)


@pytest.fixture()
def daemon():
    """A live daemon on an ephemeral loopback port, torn down after."""
    daemon = ServeDaemon(port=0, store="ram", linger=0.0)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon.request_shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def _publish_body(serve_problem):
    return {"customers": serve_problem.customers.tolist(),
            "sites": serve_problem.sites.tolist(),
            "k": serve_problem.k}


class TestEndToEnd:
    def test_publish_query_round_trip(self, daemon, serve_problem):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            assert client.health()["status"] == "ok"
            instance_id = client.publish(_publish_body(serve_problem))
            assert client.health()["instances"] == [instance_id]
            brknn, impact, solved = client.query([
                BrknnRequest(instance_id, 4),
                ImpactRequest(instance_id, 33.0, 66.0),
                SolveRequest(instance_id)])
            assert isinstance(brknn, BrknnResponse)
            direct = brknn_of_site(serve_problem, 4)
            assert brknn.members == dict(direct.members)
            assert brknn.influence == direct.influence
            assert isinstance(impact, ImpactResponse)
            assert impact.gain \
                == impact_of_new_site(serve_problem, 33.0, 66.0).gain
            assert isinstance(solved, SolveResponse)
            assert solved.upper_bound == solved.score > 0.0

    def test_metrics_count_served_requests(self, daemon, serve_problem):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
            client.query([BrknnRequest(instance_id, 0),
                          BrknnRequest(instance_id, 1)])
            counters = client.metrics()["counters"]
            assert counters.get("serve_requests", 0) >= 2
            assert counters.get("serve_batches", 0) >= 1

    def test_per_request_errors_keep_http_200(self, daemon,
                                              serve_problem):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
            bad, good = client.query([
                BrknnRequest("no-such-instance", 0),
                BrknnRequest(instance_id, 0)])
            assert isinstance(bad, ErrorResponse)
            assert isinstance(good, BrknnResponse)


class TestEnvelopeErrors:
    def test_unknown_path_is_404(self, daemon):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="unknown path"):
                client._request("GET", "/nope")
            with pytest.raises(ServeError, match="unknown path"):
                client._request("POST", "/nope", {})

    def test_malformed_publish_is_400(self, daemon):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="missing field"):
                client.publish({"customers": [[0.0, 0.0]]})

    def test_malformed_query_is_400(self, daemon):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="requests"):
                client._request("POST", "/query", {"requests": "nope"})
            with pytest.raises(ServeError, match="unknown request kind"):
                client._request("POST", "/query",
                                {"requests": [{"kind": "frobnicate",
                                               "instance": "i"}]})


class TestFailClosed:
    @pytest.mark.parametrize("length", ["-1", "12abc"])
    def test_bad_content_length_is_400_before_reading(self, daemon,
                                                      length):
        """A negative length must not reach rfile.read(-1), which would
        block until the client closed its keep-alive connection."""
        host, port = daemon.address
        conn = HTTPConnection(host, port, timeout=10.0)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        assert "Content-Length" in doc["error"]

    @pytest.mark.parametrize("length", [2 ** 30, 10 ** 12])
    def test_oversized_body_is_413_before_reading(self, daemon, length):
        """A declared length above the body cap is refused before any
        read: no allocation of the declared size, and no handler thread
        left waiting for bytes the client never sends."""
        host, port = daemon.address
        conn = HTTPConnection(host, port, timeout=5.0)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", str(length))
            conn.endheaders(b"{")
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        assert "Content-Length" in doc["error"]
        with ServeClient(host, port) as client:
            assert client.health()["status"] == "ok"

    def test_batch_timeout_is_500_and_keeps_the_connection(
            self, daemon, serve_problem):
        host, port = daemon.address
        release = threading.Event()
        service = daemon.scheduler.service
        execute = service.execute

        def stalled_execute(requests):
            release.wait(10.0)
            return execute(requests)

        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
            service.execute = stalled_execute
            daemon.request_timeout = 0.05
            try:
                with pytest.raises(ServeError, match="TimeoutError"):
                    client.query([BrknnRequest(instance_id, 0)])
                conn = client._conn
                assert client.health()["status"] == "ok"
                assert client._conn is conn  # no reconnect needed
            finally:
                release.set()


class TestProblemFromDoc:
    CUSTOMERS = [[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]
    SITES = [[0.5, 0.5], [2.0, 2.0]]

    def test_named_probability_model(self):
        problem = problem_from_doc({
            "customers": self.CUSTOMERS, "sites": self.SITES, "k": 2,
            "probability": "linear"})
        expected = ProbabilityModel.linear(2)
        assert np.array_equal(problem.models[0].probs, expected.probs)

    def test_flat_and_per_customer_probability(self):
        flat = problem_from_doc({
            "customers": self.CUSTOMERS, "sites": self.SITES, "k": 2,
            "probability": [0.75, 0.25]})
        assert list(flat.models[0].probs) == [0.75, 0.25]
        rows = problem_from_doc({
            "customers": self.CUSTOMERS, "sites": self.SITES, "k": 2,
            "probability": [[0.75, 0.25], [0.5, 0.5], [1.0, 0.0]]})
        assert list(rows.models[2].probs) == [1.0, 0.0]

    def test_weights_are_applied(self):
        problem = problem_from_doc({
            "customers": self.CUSTOMERS, "sites": self.SITES, "k": 1,
            "weights": [1.0, 2.0, 3.0]})
        assert problem.weights.tolist() == [1.0, 2.0, 3.0]

    def test_unknown_named_model_raises(self):
        with pytest.raises(ValueError, match="unknown probability"):
            problem_from_doc({
                "customers": self.CUSTOMERS, "sites": self.SITES,
                "k": 1, "probability": "zipf"})
