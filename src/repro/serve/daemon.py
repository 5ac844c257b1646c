"""Stdlib HTTP front end for the query service.

``ServeDaemon`` wraps a :class:`~repro.serve.service.QueryService`
behind a ``ThreadingHTTPServer`` (loopback by default; ``port=0`` binds
an ephemeral port).  The surface is four JSON endpoints:

=========================  ===========================================
``POST /publish``          publish an instance; body carries the
                           problem (``customers``/``sites``/``k`` plus
                           optional ``weights``/``probability``/
                           ``store``), returns ``{"instance": id,
                           "nlcs": n, "store": backend}``.
``POST /query``            ``{"requests": [...]}`` — each entry a
                           :mod:`repro.serve.protocol` request doc;
                           returns ``{"responses": [...]}``
                           positionally.  All requests of one POST
                           run as one service batch, on the daemon's
                           one executor thread.
``GET  /health``           liveness + published instance ids.
``GET  /metrics``          counters/gauges snapshot of the registry.
``POST /shutdown``         graceful stop.
=========================  ===========================================

Errors follow the protocol's split: per-request problems come back as
``error``-kind response docs (HTTP 200 — the batch succeeded), while a
malformed envelope (bad JSON, a negative or non-integer
``Content-Length``, unknown path) is an HTTP 4xx with ``{"error": ...}``
— a declared body above :data:`_MAX_BODY_BYTES` is a 413, refused
before anything is read, and a body that stalls past
:data:`_READ_TIMEOUT_S` is a 408 that closes the connection.
Anything else a route raises — a batch that outlives
``request_timeout``, a batch that raises, a bug — is an HTTP 500 with
the same envelope, so every request gets exactly one well-formed reply
and the keep-alive connection survives.  A request the stdlib refuses
before any route runs — a bad request line (400), one over 65,536
bytes (414), oversized headers (431), an unsupported method (501) or
HTTP version (505) — gets the same envelope, then the connection
closes: its body was never read.  Each error reply counts once in its
class's ``serve_errors_<status>`` counter (``/metrics``).
"""

from __future__ import annotations

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from repro.core.probability import ProbabilityModel
from repro.core.problem import MaxBRkNNProblem
from repro.obs import metrics as _obs_metrics
from repro.serve.cache import DEFAULT_CACHE_BYTES
from repro.serve.protocol import decode_request, encode_response
from repro.serve.service import QueryService

__all__ = ["ServeDaemon", "problem_from_doc"]

_LOG = logging.getLogger(__name__)

#: One counter per HTTP error class the handler answers with.  Handler
#: threads raise them concurrently, and a counter's add is a read then
#: a write, so the lock keeps two errors of one class from counting once.
_SERVE_ERRORS = {status: _obs_metrics.counter(f"serve_errors_{status}")
                 for status in (400, 404, 408, 413, 414, 431, 500, 501,
                                505)}
_SERVE_ERRORS_LOCK = threading.Lock()

#: Largest request body read (256 MiB, far above any publish body the
#: repo sends); a longer declared ``Content-Length`` gets a 413.
_MAX_BODY_BYTES = 256 * 1024 * 1024

#: Seconds one socket read or write may stall before the handler gives
#: the connection up.  A client that declares a body and then stops
#: sending gets a 408 instead of pinning a handler thread; an idle
#: keep-alive connection is closed quietly (ServeClient reconnects).
_READ_TIMEOUT_S = 30.0

_NAMED_MODELS = {
    "uniform": ProbabilityModel.uniform,
    "linear": ProbabilityModel.linear,
    "harmonic": ProbabilityModel.harmonic,
}


def problem_from_doc(doc: dict[str, Any]) -> MaxBRkNNProblem:
    """Build a problem from a ``/publish`` JSON body.

    ``probability`` may be omitted (uniform), one of the named models
    (``uniform``/``linear``/``harmonic``), a flat probability sequence,
    or a per-customer list of sequences.  A malformed body raises
    ``ValueError`` and nothing else (the daemon's 400).
    """
    try:
        customers = doc["customers"]
        sites = doc["sites"]
        k = int(doc["k"])
        probability: Any = doc.get("probability")
        if isinstance(probability, str):
            factory = _NAMED_MODELS.get(probability)
            if factory is None:
                raise ValueError(
                    f"unknown probability model {probability!r} (choose "
                    f"from {', '.join(sorted(_NAMED_MODELS))})")
            if k > len(sites):
                # The problem refuses this too, but only after the
                # factory would have built a k-entry model.
                raise ValueError(
                    f"k={k} exceeds the number of service sites "
                    f"({len(sites)})")
            probability = factory(k)
        elif (isinstance(probability, list) and probability
              and isinstance(probability[0], list)):
            probability = [ProbabilityModel.from_sequence(row)
                           for row in probability]
        weights = doc.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        return MaxBRkNNProblem(customers=customers, sites=sites, k=k,
                               weights=weights, probability=probability)
    except KeyError as exc:
        raise ValueError(
            f"publish body is missing field {exc.args[0]!r}") from exc
    except (TypeError, OverflowError) as exc:
        # A field of the wrong JSON type, or an infinite/huge number.
        raise ValueError(f"bad publish body: {exc}") from exc


class _BodyTooLarge(ValueError):
    """A declared request body above :data:`_MAX_BODY_BYTES` (HTTP 413)."""


class _BodyTimeout(Exception):
    """A request body that stalled past the read timeout (HTTP 408)."""


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the daemon installs itself as ``server.daemon``."""

    # HTTP/1.1 keeps the connection alive between requests (every
    # response already carries Content-Length), so a persistent
    # ServeClient pays TCP setup once instead of once per POST — the
    # bulk of the former socket-vs-in-process overhead.
    protocol_version = "HTTP/1.1"

    # On a persistent connection the headers and the JSON body go out
    # as separate small writes; without TCP_NODELAY, Nagle holds the
    # second write until the first is ACKed and a ~40ms delayed-ACK
    # stall lands on every response.  (HTTP/1.0 never saw this — the
    # per-request close flushed the stream.)
    disable_nagle_algorithm = True

    # StreamRequestHandler applies this to the socket: no read or write
    # blocks a handler thread for longer.
    timeout = _READ_TIMEOUT_S

    # Quiet by default — the smoke/CI logs only want the daemon's own
    # lines, not one access-log line per request.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing ------------------------------------------------------- #

    def handle_one_request(self) -> None:
        # A route sets this; until then an error reply is one the stdlib
        # sends itself (see send_error).
        self._routed = False
        super().handle_one_request()

    def _send_json(self, status: int, doc: dict[str, Any]) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """The one error reply: count it in its class's counter, then
        send the ``{"error": message}`` envelope.

        The stdlib calls this itself for a request it refuses before
        any route runs, with the body still unread on the stream, so
        that reply closes the connection; a route's error keeps it
        unless the route already gave the stream up.
        """
        with _SERVE_ERRORS_LOCK:
            _SERVE_ERRORS[code].add()
        if not self._routed:
            self.close_connection = True
            # A request line refused before its version parsed leaves
            # the stdlib's HTTP/0.9 default, which sends no status line.
            self.request_version = self.protocol_version
        if message is None:
            message = self.responses[code][0]
        self._send_json(code, {"error": message})

    def _read_json(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # The body's extent is unknown, so the stream cannot be
            # resynchronised for a next request: answer, then close.
            # (A negative length would make rfile.read block to EOF.)
            self.close_connection = True
            raise ValueError(f"invalid Content-Length {header!r}")
        length = int(header)
        if length > _MAX_BODY_BYTES:
            # Refused before reading: no allocation of the declared
            # size, no thread left waiting for bytes never sent.  The
            # body stays unread on the stream: answer, then close.
            self.close_connection = True
            raise _BodyTooLarge(
                f"Content-Length {length} exceeds the "
                f"{_MAX_BODY_BYTES}-byte body limit")
        try:
            raw = self.rfile.read(length) if length else b"{}"
        except TimeoutError as exc:
            # Part of the body may still be in flight, so the stream
            # cannot be resynchronised: answer, then close.
            self.close_connection = True
            raise _BodyTimeout(
                f"request body stalled for {self.timeout:g}s "
                f"({length} bytes declared)") from exc
        try:
            doc = json.loads(raw.decode("utf-8"))
        except RecursionError as exc:
            # Nesting past the recursion limit is as malformed as any
            # other undecodable body: a 400, not a 500.
            raise ValueError("request body is nested too deeply") from exc
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    # -- routes --------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._routed = True
        daemon: "ServeDaemon" = self.server.daemon  # type: ignore[attr-defined]
        if self.path == "/health":
            self._send_json(200, {
                "status": "ok",
                "instances": list(daemon.service.registry.ids())})
        elif self.path == "/metrics":
            self._send_json(200, {
                "counters": _obs_metrics.REGISTRY.snapshot(),
                "gauges": _obs_metrics.REGISTRY.gauges_snapshot()})
        else:
            self.send_error(404, f"unknown path {self.path}")

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._routed = True
        daemon: "ServeDaemon" = self.server.daemon  # type: ignore[attr-defined]
        try:
            if self.path == "/publish":
                doc = self._read_json()
                problem = problem_from_doc(doc)
                instance = daemon.service.publish(
                    problem, store=doc.get("store"))
                self._send_json(200, {
                    "instance": instance.instance_id,
                    "nlcs": len(instance.nlcs),
                    "store": instance.store})
            elif self.path == "/query":
                doc = self._read_json()
                request_docs = doc.get("requests")
                if not isinstance(request_docs, list):
                    raise ValueError(
                        "query body needs a 'requests' list")
                requests = [decode_request(d) for d in request_docs]
                responses = daemon._executor.submit(
                    QueryService.execute, daemon.service, requests
                ).result(timeout=daemon.request_timeout)
                self._send_json(200, {
                    "responses": [encode_response(r)
                                  for r in responses]})
            elif self.path == "/shutdown":
                self._send_json(200, {"status": "stopping"})
                daemon.request_shutdown()
            else:
                self.send_error(404, f"unknown path {self.path}")
        except _BodyTooLarge as exc:
            self.send_error(413, str(exc))
        except _BodyTimeout as exc:
            self.send_error(408, str(exc))
        except (ValueError, json.JSONDecodeError) as exc:
            self.send_error(400, str(exc))
        except Exception as exc:
            # The request boundary: whatever else a route raised (a
            # batch TimeoutError or failure, a bug) still ends in one
            # well-formed reply instead of a dead handler thread and a
            # reset keep-alive connection.
            _LOG.exception("serve: POST %s failed", self.path)
            self.send_error(500, f"{type(exc).__name__}: {exc}")


class ServeDaemon:
    """The persistent server process body (``repro serve`` runs one).

    Composes service + HTTP server + one executor thread: each
    ``/query`` POST runs as one :meth:`QueryService.execute` batch on
    that thread, so batches run one at a time, off the handler threads,
    and an identical miss queued behind a running one is a cache hit.
    ``serve_forever()`` blocks until a ``/shutdown`` POST (or
    :meth:`request_shutdown`), then tears everything down.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store: str | None = None,
                 request_timeout: float = 300.0,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.service = QueryService(store=store, cache_bytes=cache_bytes)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-batch")
        self.request_timeout = float(request_timeout)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon = self  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — authoritative under ``port=0``."""
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    def request_shutdown(self) -> None:
        """Ask ``serve_forever`` to return (safe from handler threads)."""
        threading.Thread(target=self._httpd.shutdown,
                         daemon=True).start()

    def serve_forever(self) -> None:
        """Run until shutdown; always releases service resources."""
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self.close()

    def close(self) -> None:
        """Tear down the HTTP server, then the executor once its queued
        batches have run, then the service (idempotent)."""
        self._httpd.server_close()
        self._executor.shutdown(wait=True)
        self.service.close()
