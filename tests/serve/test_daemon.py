"""HTTP daemon + client: in-process server thread, real sockets."""

import json
import socket
import sys
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probability import ProbabilityModel
from repro.core.problem import MaxBRkNNProblem
from repro.core.queries import brknn_of_site, impact_of_new_site
from repro.serve import daemon as daemon_module
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon, problem_from_doc
from repro.serve.protocol import (BrknnRequest, BrknnResponse,
                                  ErrorResponse, ImpactRequest,
                                  ImpactResponse, SolveRequest,
                                  SolveResponse)
from repro.serve.service import QueryService
from tests.serve.conftest import JSON


@pytest.fixture()
def daemon():
    """A live daemon on an ephemeral loopback port, torn down after."""
    daemon = ServeDaemon(port=0, store="ram")
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


_ERROR_CLASSES = (400, 404, 408, 413, 414, 431, 500, 501, 505)


def _error_counts(daemon):
    """The daemon's ``serve_errors_<status>`` counters via ``/metrics``."""
    with ServeClient(*daemon.address) as client:
        counters = client.metrics()["counters"]
    return {status: counters.get(f"serve_errors_{status}", 0)
            for status in _ERROR_CLASSES}


def _assert_one_more(daemon, before, status):
    """Exactly one more ``status`` error since ``before``, and no other
    class moved; returns the counts now."""
    after = _error_counts(daemon)
    assert {s: after[s] - before[s] for s in _ERROR_CLASSES} \
        == {s: int(s == status) for s in _ERROR_CLASSES}
    return after


def _post(conn, path, body: bytes):
    """One POST on a kept connection: ``(status, doc, Connection)``."""
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    doc = json.loads(response.read())
    return response.status, doc, response.getheader("Connection")


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
        errors = _error_counts(daemon)
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="unknown path"):
                client._request("GET", "/nope")
            errors = _assert_one_more(daemon, errors, 404)
            with pytest.raises(ServeError, match="unknown path"):
                client._request("POST", "/nope", {})
            _assert_one_more(daemon, errors, 404)

    def test_malformed_publish_is_400(self, daemon):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="missing field"):
                client.publish({"customers": [[0.0, 0.0]]})

    def test_publish_naming_shm_is_400(self, daemon, serve_problem):
        errors = _error_counts(daemon)
        with ServeClient(*daemon.address) as client:
            with pytest.raises(ServeError,
                               match="unknown store backend 'shm'"):
                client.publish({**_publish_body(serve_problem),
                                "store": "shm"})
        _assert_one_more(daemon, errors, 400)

    def test_malformed_query_is_400(self, daemon):
        host, port = daemon.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="requests"):
                client._request("POST", "/query", {"requests": "nope"})
            with pytest.raises(ServeError, match="unknown request kind"):
                client._request("POST", "/query",
                                {"requests": [{"kind": "frobnicate",
                                               "instance": "i"}]})

    def test_malformed_request_docs_are_400_on_a_kept_connection(
            self, daemon):
        """A request doc that is not an object, or a field no int can
        hold, is the client's fault: 400, and the connection stays."""
        host, port = daemon.address
        conn = HTTPConnection(host, port, timeout=10.0)
        try:
            status, doc, header = _post(conn, "/query",
                                        b'{"requests": [1]}')
            assert (status, header) == (400, None), doc
            assert "JSON object" in doc["error"]
            sock = conn.sock
            status, doc, header = _post(
                conn, "/query",
                b'{"requests": [{"kind": "brknn", "instance": "i", '
                b'"site": Infinity}]}')
            assert (status, header) == (400, None), doc
            assert "bad brknn request field" in doc["error"]
            assert conn.sock is sock  # no reconnect needed
        finally:
            conn.close()

    @pytest.mark.parametrize("field, value", [("x", b"NaN"),
                                              ("y", b"-Infinity"),
                                              ("epsilon", b"NaN")])
    def test_non_finite_request_floats_are_400_on_a_kept_connection(
            self, daemon, serve_problem, field, value):
        """JSON's NaN and Infinity are no place and no tolerance: the
        request is refused by name, not answered."""
        host, port = daemon.address
        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
        kind = "solve_anytime" if field == "epsilon" else "impact"
        fields = {"x": b"0.5", "y": b"0.5", "epsilon": b"0.25",
                  field: value}
        body = (b'{"requests": [{"kind": "%s", "instance": "%s", '
                b'"x": %s, "y": %s, "epsilon": %s}]}'
                % (kind.encode(), instance_id.encode(), fields["x"],
                   fields["y"], fields["epsilon"]))
        conn = HTTPConnection(host, port, timeout=10.0)
        try:
            status, doc, header = _post(conn, "/query", body)
            assert (status, header) == (400, None), doc
            assert f"'{field}' must be finite" in doc["error"]
            sock = conn.sock
            status, doc, _ = _post(
                conn, "/query",
                b'{"requests": [{"kind": "impact", "instance": "%s", '
                b'"x": 0.5, "y": 0.5}]}' % instance_id.encode())
            assert status == 200, doc
            assert conn.sock is sock  # no reconnect needed
        finally:
            conn.close()

    def test_nan_probability_publish_is_400(self, daemon):
        host, port = daemon.address
        conn = HTTPConnection(host, port, timeout=10.0)
        try:
            status, doc, header = _post(
                conn, "/publish",
                b'{"customers": [[0.0, 0.0]], "sites": [[1.0, 1.0]], '
                b'"k": 1, "probability": [NaN]}')
            assert (status, header) == (400, None), doc
            assert "non-finite probability" in doc["error"]
        finally:
            conn.close()

    def test_deeply_nested_body_is_400_on_a_kept_connection(self,
                                                            daemon):
        """A body nested past the recursion limit is malformed JSON like
        any other, not a server fault."""
        host, port = daemon.address
        conn = HTTPConnection(host, port, timeout=10.0)
        try:
            depth = 100_000
            status, doc, header = _post(conn, "/query", b"[" * depth)
            assert (status, header) == (400, None), doc
            assert "nested too deeply" in doc["error"]
            sock = conn.sock
            status, doc, _ = _post(conn, "/query", b'{"requests": []}')
            assert (status, doc) == (200, {"responses": []})
            assert conn.sock is sock  # no reconnect needed
        finally:
            conn.close()


def _raw_exchange(daemon, payload: bytes):
    """Send raw bytes; read until the daemon closes: ``(head, body)``."""
    with socket.create_connection(daemon.address, timeout=10.0) as sock:
        sock.sendall(payload)
        received = b""
        while chunk := sock.recv(65536):  # until the daemon closes
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    return head, body


class TestStdlibRefusals:
    """Requests ``BaseHTTPRequestHandler`` refuses before any route runs
    get the JSON envelope, count in their class, and close."""

    @pytest.mark.parametrize("payload, status", [
        (b"PUT /query HTTP/1.1\r\nHost: test\r\n"
         b"Content-Type: application/json\r\nContent-Length: 2\r\n"
         b"\r\n{}", 501),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /health HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101
         + b"\r\n", 431),
        (b"GET /health HTTP/2.0\r\n\r\n", 505),
    ], ids=["unsupported-method", "garbage-request-line",
            "request-line-over-64k", "too-many-headers", "http-2"])
    def test_refusal_is_one_json_envelope_then_close(self, daemon,
                                                     payload, status):
        errors = _error_counts(daemon)
        head, body = _raw_exchange(daemon, payload)
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert set(json.loads(body)) == {"error"}
        _assert_one_more(daemon, errors, status)

    def test_head_refusal_sends_no_body(self, daemon):
        errors = _error_counts(daemon)
        head, body = _raw_exchange(
            daemon, b"HEAD /health HTTP/1.1\r\nHost: test\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert body == b""
        _assert_one_more(daemon, errors, 501)


class TestFailClosed:
    @pytest.mark.parametrize("length", ["-1", "12abc"])
    def test_bad_content_length_is_400_before_reading(self, daemon,
                                                      length):
        """A negative length must not reach rfile.read(-1), which would
        block until the client closed its keep-alive connection."""
        host, port = daemon.address
        errors = _error_counts(daemon)
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
        _assert_one_more(daemon, errors, 400)

    @pytest.mark.parametrize("length", [2 ** 30, 10 ** 12])
    def test_oversized_body_is_413_before_reading(self, daemon, length):
        """A declared length above the body cap is refused before any
        read: no allocation of the declared size, and no handler thread
        left waiting for bytes the client never sends."""
        host, port = daemon.address
        errors = _error_counts(daemon)
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
        _assert_one_more(daemon, errors, 413)

    def test_stalled_body_is_one_408_then_close(self, daemon, monkeypatch):
        """A client that declares a body and stops sending gets exactly
        one 408 envelope, then the daemon closes the connection instead
        of pinning a handler thread on the read."""
        monkeypatch.setattr(daemon_module._Handler, "timeout", 0.2)
        host, port = daemon.address
        errors = _error_counts(daemon)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n{\"requests\"")
            received = b""
            while chunk := sock.recv(65536):  # until the daemon closes
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert received.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in head
        assert "stalled" in json.loads(body)["error"]
        with ServeClient(host, port) as client:
            assert client.health()["status"] == "ok"
        _assert_one_more(daemon, errors, 408)

    def test_get_declaring_a_body_is_answered_then_closed(self, daemon):
        """No GET route reads a body, so a declared one would be parsed
        as the next request line: one 200 with ``Connection: close``,
        then EOF, and no error class moves."""
        errors = _error_counts(daemon)
        head, body = _raw_exchange(
            daemon, b"GET /health HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 5\r\n\r\nhello"
                    b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 "), head
        assert b"Connection: close" in head
        assert b"HTTP/1.1 " not in body  # EOF after the one reply
        assert json.loads(body)["status"] == "ok"
        assert _error_counts(daemon) == errors

    def test_get_without_a_body_keeps_the_connection(self, daemon):
        conn = HTTPConnection(*daemon.address, timeout=10.0)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            assert (response.status, response.getheader("Connection")) \
                == (200, None)
            sock = conn.sock
            conn.request("GET", "/health", headers={"Content-Length": "0"})
            response = conn.getresponse()
            response.read()
            assert (response.status, response.getheader("Connection")) \
                == (200, None)
            assert conn.sock is sock  # no reconnect needed
        finally:
            conn.close()

    def test_idle_keep_alive_closes_and_client_reconnects(self, daemon,
                                                          monkeypatch):
        monkeypatch.setattr(daemon_module._Handler, "timeout", 0.2)
        host, port = daemon.address
        with ServeClient(host, port) as client:
            assert client.health()["status"] == "ok"
            sock = client._conn.sock
            time.sleep(0.6)  # past the timeout: the daemon drops it
            assert sock.recv(1) == b""
            assert client.health()["status"] == "ok"

    def test_batch_timeout_is_500_and_keeps_the_connection(
            self, daemon, serve_problem, monkeypatch):
        host, port = daemon.address
        release = threading.Event()
        execute = QueryService.execute

        def stalled_execute(service, requests):
            release.wait(10.0)
            return execute(service, requests)

        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
            errors = _error_counts(daemon)
            monkeypatch.setattr(QueryService, "execute", stalled_execute)
            daemon.request_timeout = 0.05
            try:
                with pytest.raises(ServeError, match="TimeoutError"):
                    client.query([BrknnRequest(instance_id, 0)])
                conn = client._conn
                assert client.health()["status"] == "ok"
                assert client._conn is conn  # no reconnect needed
                _assert_one_more(daemon, errors, 500)
            finally:
                release.set()

    def test_batch_failure_is_one_500_and_keeps_the_connection(
            self, daemon, serve_problem, monkeypatch):
        """A batch that raises is the server's fault: one 500 envelope
        for the POST, not a 200 of per-request error docs."""
        host, port = daemon.address

        def failing_execute(service, requests):
            raise RuntimeError("service down")

        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
        errors = _error_counts(daemon)
        monkeypatch.setattr(QueryService, "execute", failing_execute)
        body = json.dumps({"requests": [
            {"kind": "brknn", "instance": instance_id, "site": site}
            for site in (0, 1)]}).encode()
        conn = HTTPConnection(host, port, timeout=10.0)
        try:
            status, doc, header = _post(conn, "/query", body)
            assert (status, header) == (500, None), doc
            assert doc == {"error": "RuntimeError: service down"}
            sock = conn.sock
            conn.request("GET", "/health")
            assert conn.getresponse().status == 200
            assert conn.sock is sock  # no reconnect needed
        finally:
            conn.close()
        _assert_one_more(daemon, errors, 500)


class TestBatchThread:
    def test_identical_concurrent_misses_solve_once(self, daemon,
                                                    serve_problem):
        """Eight callers POST the same solve at once.  Batches run one
        at a time, so the first is the only miss and every later one
        is answered by the cache the first filled."""
        host, port = daemon.address
        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
            before = client.metrics()["counters"]
        barrier = threading.Barrier(8)
        answers = [None] * 8

        def post(slot):
            with ServeClient(host, port) as client:
                barrier.wait(10.0)
                (answers[slot],) = client.query([SolveRequest(instance_id)])

        threads = [threading.Thread(target=post, args=(slot,))
                   for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # more interleavings per run
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        with ServeClient(host, port) as client:
            after = client.metrics()["counters"]
        delta = {name: after.get(name, 0) - before.get(name, 0)
                 for name in ("serve_cache_misses", "serve_cache_hits")}
        assert delta == {"serve_cache_misses": 1, "serve_cache_hits": 7}
        assert isinstance(answers[0], SolveResponse)
        assert all(answer == answers[0] for answer in answers)

    def test_shutdown_drains_a_running_batch(self, daemon, serve_problem,
                                             monkeypatch):
        """A query whose batch is still running when ``/shutdown``
        arrives gets its answer: close() waits for the batch thread
        before it releases the service."""
        host, port = daemon.address
        listener = daemon._httpd.socket
        running = threading.Event()
        execute = QueryService.execute

        def held_execute(service, requests):
            running.set()
            # Hold the batch until close() has closed the listener, so
            # only the executor's drain can let it finish.
            deadline = time.monotonic() + 10.0
            while listener.fileno() != -1 and time.monotonic() < deadline:
                time.sleep(0.01)
            return execute(service, requests)

        with ServeClient(host, port) as client:
            instance_id = client.publish(_publish_body(serve_problem))
        monkeypatch.setattr(QueryService, "execute", held_execute)
        answers = []

        def post():
            with ServeClient(host, port) as client:
                answers.extend(client.query([BrknnRequest(instance_id, 4)]))

        thread = threading.Thread(target=post)
        thread.start()
        assert running.wait(10.0)
        with ServeClient(host, port) as client:
            client.shutdown()
        thread.join(30.0)
        assert not thread.is_alive()
        assert listener.fileno() == -1
        (answer,) = answers
        assert isinstance(answer, BrknnResponse)
        assert answer.members == dict(brknn_of_site(serve_problem,
                                                    4).members)


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

    def test_k_above_the_sites_builds_no_named_model(self, monkeypatch):
        """A named model has k entries: a k no site count can meet is
        refused before one is built, not after (k=10**12 would be a
        tuple of 10**12 floats)."""
        built = []
        monkeypatch.setitem(daemon_module._NAMED_MODELS, "uniform",
                            lambda k: built.append(k)
                            or ProbabilityModel.uniform(1))
        with pytest.raises(ValueError, match="exceeds"):
            problem_from_doc({
                "customers": self.CUSTOMERS, "sites": self.SITES,
                "k": 10 ** 12, "probability": "uniform"})
        assert built == []

    @settings(max_examples=300, deadline=None)
    @given(k=JSON | st.integers(min_value=-2, max_value=3),
           probability=(JSON | st.none()
                        | st.sampled_from(["uniform", "linear",
                                           "harmonic"])),
           weights=(JSON | st.none()
                    | st.lists(JSON, min_size=3, max_size=3)))
    def test_malformed_fields_raise_only_value_error(self, k, probability,
                                                     weights):
        """Whatever JSON the body carries in ``k``, ``probability`` and
        ``weights``, the daemon's decoder builds a problem or raises
        ``ValueError`` (a 400), never another exception (a 500)."""
        doc = {"customers": self.CUSTOMERS, "sites": self.SITES,
               "k": k, "probability": probability, "weights": weights}
        try:
            problem = problem_from_doc(doc)
        except ValueError:
            return
        assert isinstance(problem, MaxBRkNNProblem)
