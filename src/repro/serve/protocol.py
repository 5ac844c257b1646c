"""Request/response dataclasses and JSON codecs for the query service.

One request *kind* per operation the service exposes (``REQUEST_KINDS``
is the registry the RPR005 serve drift check cross-references against
docs, CLI, and tests):

* ``brknn`` — the BRkNN influence set of an existing site
  (:func:`repro.core.queries.brknn_of_site`);
* ``site_influence`` — per-site influence scores
  (:func:`repro.core.queries.site_influence`);
* ``impact`` — the new-site what-if
  (:func:`repro.core.queries.impact_of_new_site`);
* ``solve`` — a full (or top-t) MaxFirst solve over the published NLC
  store;
* ``solve_anytime`` — the epsilon-bounded anytime solve: stops at a
  certified ``1/(1+epsilon)`` approximation and reports the engine's
  upper bound alongside the score;
* ``heatmap`` — the influence heat map: the Phase I quadrant
  tessellation rasterised onto an ``nx`` × ``ny`` tile grid
  (:mod:`repro.core.heatmap`), lower and upper influence bounds per
  tile.

Canonical request keys
----------------------
:func:`request_key` renders a request as its encoded JSON document with
sorted keys and no whitespace.  Because the codec already canonicalises
every field (``int()``/``float()``) and ``json`` emits shortest-
round-trip float reprs, two requests get the same key exactly when they
are field-for-field bit-identical — the property the serve-path result
cache (:mod:`repro.serve.cache`) and the service's in-batch dedup both
rely on.

The wire format is deliberately dumb JSON: every request/response is a
flat object with a ``kind`` tag, encoded by :func:`encode_request` /
:func:`encode_response` and decoded by their ``decode_*`` duals.  The
codecs are lossless for the result payloads (Python's ``json`` emits
shortest-round-trip float reprs), which is what lets the benchmark and
the smoke job assert **bit-identity** between served answers and direct
in-process :mod:`repro.core.queries` calls even across the socket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "MAX_HEATMAP_EDGE",
    "REQUEST_KINDS",
    "BrknnRequest",
    "SiteInfluenceRequest",
    "ImpactRequest",
    "SolveRequest",
    "AnytimeSolveRequest",
    "HeatmapRequest",
    "BrknnResponse",
    "SiteInfluenceResponse",
    "ImpactResponse",
    "RegionSummary",
    "SolveResponse",
    "HeatmapResponse",
    "ErrorResponse",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "request_key",
]

#: Every request kind the service understands, in documentation order.
#: The serve drift check (``repro.analysis.project_rules
#: .check_serve_drift``) holds this tuple, the ``docs/api.md`` request
#: table, the CLI ``--kind`` choices, the scripted workload
#: (``repro.serve.workload``), and ``tests/serve/`` in sync.
REQUEST_KINDS: tuple[str, ...] = (
    "brknn", "site_influence", "impact", "solve", "solve_anytime",
    "heatmap")

#: Largest tile-grid edge a ``heatmap`` request may ask for.  A
#: 512 × 512 float64 pair of fields is ~4 MB on the wire — plenty for a
#: display surface, small enough that one request cannot balloon the
#: daemon or the result cache.
MAX_HEATMAP_EDGE = 512


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class BrknnRequest:
    """Influence set of existing site ``site`` of instance ``instance``."""

    instance: str
    site: int
    kind: str = field(default="brknn", init=False)


@dataclass(frozen=True)
class SiteInfluenceRequest:
    """Influence of every existing site of ``instance``."""

    instance: str
    kind: str = field(default="site_influence", init=False)


@dataclass(frozen=True)
class ImpactRequest:
    """What-if: open a new site at ``(x, y)`` on ``instance``."""

    instance: str
    x: float
    y: float
    kind: str = field(default="impact", init=False)


@dataclass(frozen=True)
class SolveRequest:
    """Full (or top-t) MaxFirst solve over ``instance``'s NLC store."""

    instance: str
    top_t: int = 1
    kind: str = field(default="solve", init=False)


@dataclass(frozen=True)
class AnytimeSolveRequest:
    """Epsilon-bounded anytime solve: certified 1/(1+eps) approximation."""

    instance: str
    epsilon: float
    kind: str = field(default="solve_anytime", init=False)


@dataclass(frozen=True)
class HeatmapRequest:
    """Influence heat map of ``instance`` on an ``nx`` × ``ny`` grid."""

    instance: str
    nx: int = 32
    ny: int = 32
    kind: str = field(default="heatmap", init=False)


Request = (BrknnRequest | SiteInfluenceRequest | ImpactRequest
           | SolveRequest | AnytimeSolveRequest | HeatmapRequest)

_REQUEST_TYPES: dict[str, type] = {
    "brknn": BrknnRequest,
    "site_influence": SiteInfluenceRequest,
    "impact": ImpactRequest,
    "solve": SolveRequest,
    "solve_anytime": AnytimeSolveRequest,
    "heatmap": HeatmapRequest,
}


# ---------------------------------------------------------------------- #
# Responses
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class BrknnResponse:
    """Served dual of :class:`repro.core.queries.InfluenceSet`."""

    site: int
    members: dict[int, int]
    influence: float
    kind: str = field(default="brknn", init=False)


@dataclass(frozen=True)
class SiteInfluenceResponse:
    """Per-site influence values, index-aligned with the site array."""

    influence: tuple[float, ...]
    kind: str = field(default="site_influence", init=False)


@dataclass(frozen=True)
class ImpactResponse:
    """Served dual of :class:`repro.core.queries.NewSiteImpact`."""

    x: float
    y: float
    gain: float
    customer_ranks: dict[int, int]
    incumbent_losses: dict[int, float]
    kind: str = field(default="impact", init=False)


@dataclass(frozen=True)
class RegionSummary:
    """One optimal region, reduced to its servable facts.

    ``x``/``y`` is a representative interior point (a valid site
    location attaining ``score``); ``cover`` is the covering NLC index
    set — enough for a client to rank, place, or re-derive the region
    against its own copy of the instance.
    """

    score: float
    area: float
    x: float
    y: float
    cover: tuple[int, ...]


@dataclass(frozen=True)
class SolveResponse:
    """Result of a ``solve`` / ``solve_anytime`` request.

    ``score`` is the proven lower bound (the exact optimum when
    ``upper_bound == score``); ``upper_bound`` is the engine's certified
    global upper bound, so ``score >= upper_bound / (1 + epsilon)``
    always holds for the epsilon the request asked for.
    """

    score: float
    upper_bound: float
    regions: tuple[RegionSummary, ...]
    kind: str = field(default="solve", init=False)


@dataclass(frozen=True)
class HeatmapResponse:
    """The influence field as two row-major tile grids.

    ``lower[j * nx + i]`` is a *proven* influence score attained
    somewhere in tile ``(i, j)`` (column ``i`` from ``xmin``, row ``j``
    from ``ymin``); ``upper`` bounds the influence of every location in
    the tile.  ``bounds`` is the solved space ``(xmin, ymin, xmax,
    ymax)`` the grid tessellates.  The two fields bracket the exact
    influence surface: where the Phase I tessellation resolved a tile
    to a consistent quadrant, ``lower == upper``.
    """

    nx: int
    ny: int
    bounds: tuple[float, float, float, float]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    kind: str = field(default="heatmap", init=False)


@dataclass(frozen=True)
class ErrorResponse:
    """Per-request failure (bad arguments, unknown instance)."""

    message: str
    kind: str = field(default="error", init=False)


Response = (BrknnResponse | SiteInfluenceResponse | ImpactResponse
            | SolveResponse | HeatmapResponse | ErrorResponse)


# ---------------------------------------------------------------------- #
# Codecs
# ---------------------------------------------------------------------- #


def encode_request(request: Request) -> dict[str, Any]:
    """Request → JSON-ready dict (the inverse of :func:`decode_request`)."""
    if isinstance(request, BrknnRequest):
        return {"kind": "brknn", "instance": request.instance,
                "site": int(request.site)}
    if isinstance(request, SiteInfluenceRequest):
        return {"kind": "site_influence", "instance": request.instance}
    if isinstance(request, ImpactRequest):
        return {"kind": "impact", "instance": request.instance,
                "x": float(request.x), "y": float(request.y)}
    if isinstance(request, SolveRequest):
        return {"kind": "solve", "instance": request.instance,
                "top_t": int(request.top_t)}
    if isinstance(request, AnytimeSolveRequest):
        return {"kind": "solve_anytime", "instance": request.instance,
                "epsilon": float(request.epsilon)}
    if isinstance(request, HeatmapRequest):
        return {"kind": "heatmap", "instance": request.instance,
                "nx": int(request.nx), "ny": int(request.ny)}
    raise TypeError(f"not a serve request: {request!r}")


def request_key(request: Request) -> str:
    """Canonical cache/coalescing key: the encoded request, serialised
    with sorted keys and no whitespace.

    Every field passes through the codec's ``int()``/``float()``
    canonicalisation and ``json``'s shortest-round-trip float repr, so
    the key is deterministic and two requests collide exactly when they
    are bit-identical field for field.
    """
    return json.dumps(encode_request(request), sort_keys=True,
                      separators=(",", ":"))


def _finite(doc: Mapping[str, Any], name: str) -> float:
    """Field ``name`` of ``doc`` as a finite float (``ValueError`` on
    NaN or an infinity, which JSON's ``NaN``/``Infinity`` let in)."""
    value = float(doc[name])
    if not math.isfinite(value):
        raise ValueError(f"{name!r} must be finite, got {value!r}")
    return value


def decode_request(doc: Mapping[str, Any]) -> Request:
    """JSON value → request dataclass; raises ``ValueError`` (and only
    that) on anything but a well-formed request doc."""
    if not isinstance(doc, Mapping):
        raise ValueError(
            f"a request must be a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind")
    cls = _REQUEST_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(
            f"unknown request kind {kind!r} "
            f"(choose from {', '.join(REQUEST_KINDS)})")
    instance = doc.get("instance")
    if not isinstance(instance, str) or not instance:
        raise ValueError(f"{kind} request needs a non-empty 'instance'")
    try:
        if cls is BrknnRequest:
            return BrknnRequest(instance=instance, site=int(doc["site"]))
        if cls is SiteInfluenceRequest:
            return SiteInfluenceRequest(instance=instance)
        if cls is ImpactRequest:
            return ImpactRequest(instance=instance, x=_finite(doc, "x"),
                                 y=_finite(doc, "y"))
        if cls is SolveRequest:
            return SolveRequest(instance=instance,
                                top_t=int(doc.get("top_t", 1)))
        if cls is HeatmapRequest:
            nx = int(doc.get("nx", 32))
            ny = int(doc.get("ny", 32))
            if not (1 <= nx <= MAX_HEATMAP_EDGE
                    and 1 <= ny <= MAX_HEATMAP_EDGE):
                raise ValueError(
                    f"heatmap grid {nx}x{ny} outside "
                    f"[1, {MAX_HEATMAP_EDGE}]^2")
            return HeatmapRequest(instance=instance, nx=nx, ny=ny)
        return AnytimeSolveRequest(instance=instance,
                                   epsilon=_finite(doc, "epsilon"))
    except KeyError as exc:
        raise ValueError(
            f"{kind} request is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an infinity, float() of a huge int.
        raise ValueError(f"bad {kind} request field: {exc}") from exc


def encode_response(response: Response) -> dict[str, Any]:
    """Response → JSON-ready dict.

    Integer dict keys become JSON strings on the wire;
    :func:`decode_response` converts them back, so a decoded response
    compares equal (``==``, hence bit-identical floats) to the original.
    """
    if isinstance(response, BrknnResponse):
        return {"kind": "brknn", "site": response.site,
                "members": {str(c): r
                            for c, r in response.members.items()},
                "influence": response.influence}
    if isinstance(response, SiteInfluenceResponse):
        return {"kind": "site_influence",
                "influence": list(response.influence)}
    if isinstance(response, ImpactResponse):
        return {"kind": "impact", "x": response.x, "y": response.y,
                "gain": response.gain,
                "customer_ranks": {str(c): r for c, r
                                   in response.customer_ranks.items()},
                "incumbent_losses": {str(j): v for j, v
                                     in response.incumbent_losses.items()}}
    if isinstance(response, SolveResponse):
        return {"kind": "solve", "score": response.score,
                "upper_bound": response.upper_bound,
                "regions": [
                    {"score": r.score, "area": r.area, "x": r.x,
                     "y": r.y, "cover": list(r.cover)}
                    for r in response.regions]}
    if isinstance(response, HeatmapResponse):
        return {"kind": "heatmap", "nx": response.nx, "ny": response.ny,
                "bounds": list(response.bounds),
                "lower": list(response.lower),
                "upper": list(response.upper)}
    if isinstance(response, ErrorResponse):
        return {"kind": "error", "message": response.message}
    raise TypeError(f"not a serve response: {response!r}")


def decode_response(doc: Mapping[str, Any]) -> Response:
    """JSON dict → response dataclass (exact inverse of the encoder)."""
    kind = doc.get("kind")
    if kind == "brknn":
        return BrknnResponse(
            site=int(doc["site"]),
            members={int(c): int(r)
                     for c, r in doc["members"].items()},
            influence=float(doc["influence"]))
    if kind == "site_influence":
        return SiteInfluenceResponse(
            influence=tuple(float(v) for v in doc["influence"]))
    if kind == "impact":
        return ImpactResponse(
            x=float(doc["x"]), y=float(doc["y"]),
            gain=float(doc["gain"]),
            customer_ranks={int(c): int(r) for c, r
                            in doc["customer_ranks"].items()},
            incumbent_losses={int(j): float(v) for j, v
                              in doc["incumbent_losses"].items()})
    if kind == "solve":
        return SolveResponse(
            score=float(doc["score"]),
            upper_bound=float(doc["upper_bound"]),
            regions=tuple(
                RegionSummary(score=float(r["score"]),
                              area=float(r["area"]),
                              x=float(r["x"]), y=float(r["y"]),
                              cover=tuple(int(i) for i in r["cover"]))
                for r in doc["regions"]))
    if kind == "heatmap":
        xmin, ymin, xmax, ymax = (float(v) for v in doc["bounds"])
        return HeatmapResponse(
            nx=int(doc["nx"]), ny=int(doc["ny"]),
            bounds=(xmin, ymin, xmax, ymax),
            lower=tuple(float(v) for v in doc["lower"]),
            upper=tuple(float(v) for v in doc["upper"]))
    if kind == "error":
        return ErrorResponse(message=str(doc["message"]))
    raise ValueError(f"unknown response kind {kind!r}")
