"""Persistent query service over the shared NLC store.

Publish a MaxBRkNN instance once — NLC SoA into a :mod:`repro.store`
backend, customer→site rank matrix, Theorem-2/3 certificate registry —
then serve batched requests against the mapped store with zero NLC
copies per request.  Layers, bottom up:

* :mod:`~repro.serve.protocol` — request/response dataclasses, the
  lossless JSON codecs (``REQUEST_KINDS`` is the drift-checked
  registry), and :func:`request_key` canonical keys;
* :mod:`~repro.serve.cache` — :class:`ResultCache`, the epoch-stamped
  per-instance LRU the service answers repeat reads from;
* :mod:`~repro.serve.instance` — :class:`InstanceRegistry` /
  :class:`ServedInstance`, the publish step and per-instance shared
  state;
* :mod:`~repro.serve.service` — :class:`QueryService`, in-process batch
  execution fronted by the result cache, which with the batch's own
  dedup is the only single-flight;
* :mod:`~repro.serve.daemon` / :mod:`~repro.serve.client` — the stdlib
  HTTP/1.1 keep-alive socket front end (``repro serve`` /
  ``repro query``); the daemon runs each ``/query`` POST as one batch
  on one executor thread.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon, problem_from_doc
from repro.serve.instance import InstanceRegistry, ServedInstance
from repro.serve.protocol import (REQUEST_KINDS, AnytimeSolveRequest,
                                  BrknnRequest, BrknnResponse,
                                  ErrorResponse, HeatmapRequest,
                                  HeatmapResponse, ImpactRequest,
                                  ImpactResponse, RegionSummary,
                                  SiteInfluenceRequest,
                                  SiteInfluenceResponse, SolveRequest,
                                  SolveResponse, decode_request,
                                  decode_response, encode_request,
                                  encode_response, request_key)
from repro.serve.service import QueryService, execute_requests

__all__ = [
    "REQUEST_KINDS",
    "AnytimeSolveRequest",
    "BrknnRequest",
    "BrknnResponse",
    "ErrorResponse",
    "HeatmapRequest",
    "HeatmapResponse",
    "ImpactRequest",
    "ImpactResponse",
    "InstanceRegistry",
    "QueryService",
    "RegionSummary",
    "ResultCache",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServedInstance",
    "SiteInfluenceRequest",
    "SiteInfluenceResponse",
    "SolveRequest",
    "SolveResponse",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "execute_requests",
    "problem_from_doc",
    "request_key",
]
