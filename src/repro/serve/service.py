"""The query service: batched request execution over published instances.

:class:`QueryService` is the in-process core the HTTP daemon and the
CLI wrap.  One ``execute()`` call handles one *batch* of requests: the
batch is grouped by instance, and each group's result-cache misses run
through :func:`execute_requests` in this process, against the views the
instance attached over its published NLC store — no request copies NLC
bytes.

Counters (``repro.obs``): ``serve_requests`` and ``serve_batches``
count what arrived.
Spans: ``serve/batch`` per ``execute()``, ``serve/request`` per
request, ``serve/solve`` around each MaxFirst run.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.heatmap import build_heatmap, empty_heatmap
from repro.core.maxfirst import MaxFirst
from repro.core.problem import MaxBRkNNProblem
from repro.core.queries import (brknn_of_site, impact_of_new_site,
                                site_influence)
from repro.core.region import (FoundRegion, compute_optimal_region,
                               found_regions, keep_top_t, select_found)
from repro.geometry.rect import Rect
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span
from repro.serve.cache import DEFAULT_CACHE_BYTES, ResultCache
from repro.serve.instance import InstanceRegistry, ServedInstance
from repro.serve.protocol import (MAX_HEATMAP_EDGE, AnytimeSolveRequest,
                                  BrknnRequest, BrknnResponse,
                                  ErrorResponse, HeatmapRequest,
                                  HeatmapResponse, ImpactRequest,
                                  ImpactResponse, RegionSummary,
                                  SiteInfluenceRequest,
                                  SiteInfluenceResponse, SolveRequest,
                                  SolveResponse, request_key)

__all__ = ["QueryService", "execute_requests"]

_SERVE_REQUESTS = _obs_metrics.counter("serve_requests")
_SERVE_BATCHES = _obs_metrics.counter("serve_batches")

#: ``(bound, found)`` — the Theorem-2/3 registry snapshot a batch
#: executes under (see :meth:`repro.serve.instance.ServedInstance
#: .certificate`).
Certificate = tuple[float, tuple[FoundRegion, ...]]


def _solve_instance(nlcs: Any, space: Rect, top_t: int, epsilon: float,
                    certificate: Certificate
                    ) -> tuple[SolveResponse, Certificate | None]:
    """Run one MaxFirst solve against the attached store views.

    Returns the response plus a fresh certificate to install when this
    was the instance's first completed *exact* top-1 solve (``None``
    otherwise).  A ``top_t == 1`` solve is seeded with the certificate:
    ``bound`` enters as ``initial_bound`` (Theorem 2 prunes against the
    proven optimum from the first pop) and the recorded covers enter
    the Theorem 3 registry — quadrants of already-found regions prune
    immediately, and the regions themselves are merged back from the
    certificate's found regions below, exactly as the sharded engine
    re-reports covers seeded across tiles.  A top-t solve runs unseeded
    (seeded covers would mask lower tiers) and reports its ``t`` best
    score tiers.
    """
    if nlcs is None or len(nlcs) == 0:
        # Degenerate instance: nothing scores anywhere.
        return SolveResponse(score=0.0, upper_bound=0.0, regions=()), None

    solver = MaxFirst(top_t=top_t, epsilon=epsilon)
    bound, seeds = certificate if top_t == 1 else (0.0, ())
    accepted, max_min, _stats = solver.run_phase1(
        nlcs, space, initial_bound=bound,
        seed_covers=[(cover, score) for cover, score, _ in seeds] or None)
    tol = solver.tie_tol * max(1.0, abs(max_min))
    # This run's found regions, then the certificate's: seeding makes
    # the search *skip* regions the certificate already proved, so those
    # regions must come back from it — growing only this run's would
    # under-report exactly the regions the speedup avoided
    # re-tessellating.
    found = [*found_regions(accepted), *seeds]
    regions = [
        compute_optimal_region(rect, cover, nlcs, score=score)
        for cover, score, rect in select_found(
            found, max_min - tol if top_t == 1 else -math.inf)
    ]
    regions.sort(key=lambda r: -r.score)
    if top_t > 1:
        regions = keep_top_t(regions, top_t, tol)
    summaries = []
    for region in regions:
        p = region.representative_point()
        summaries.append(RegionSummary(
            score=region.score, area=region.area, x=p.x, y=p.y,
            cover=region.cover))
    response = SolveResponse(score=max_min,
                             upper_bound=solver.last_upper_bound,
                             regions=tuple(summaries))
    # repro: float-eq(epsilon is a user-supplied mode flag, not a
    # computed value: exactly 0.0 selects the exact solve, anything
    # else the anytime mode — no arithmetic ever produces it)
    if top_t != 1 or epsilon != 0.0:
        return response, None
    # Exact top-1 completion: the score is the proven optimum and every
    # found region (this run's and the inherited ones) is a sound
    # Theorem 3 seed for later solves on this instance.
    return response, (float(max_min), tuple(found))


def execute_requests(problem: MaxBRkNNProblem, ranks: np.ndarray,
                     nlcs: Any, space: Rect, requests: Sequence[Any],
                     certificate: Certificate
                     ) -> tuple[list[Any], Certificate | None]:
    """Execute one instance-group of requests against its arrays.

    Per-request failures (bad site index, invalid epsilon) come back as
    :class:`ErrorResponse` entries; only infrastructure failures raise.
    Returns ``(responses, new_certificate)`` — the certificate from the
    first exact solve in the batch, or ``None``.
    """
    responses: list[Any] = []
    new_certificate: Certificate | None = None
    for request in requests:
        with span("serve/request", kind=request.kind):
            try:
                if isinstance(request, BrknnRequest):
                    found = brknn_of_site(problem, request.site,
                                          ranks=ranks)
                    responses.append(BrknnResponse(
                        site=found.site, members=dict(found.members),
                        influence=found.influence))
                elif isinstance(request, SiteInfluenceRequest):
                    values = site_influence(problem, ranks=ranks)
                    responses.append(SiteInfluenceResponse(
                        influence=tuple(float(v) for v in values)))
                elif isinstance(request, ImpactRequest):
                    impact = impact_of_new_site(problem, request.x,
                                                request.y, ranks=ranks)
                    responses.append(ImpactResponse(
                        x=impact.x, y=impact.y, gain=impact.gain,
                        customer_ranks=dict(impact.customer_ranks),
                        incumbent_losses=dict(impact.incumbent_losses)))
                elif isinstance(request, HeatmapRequest):
                    nx, ny = int(request.nx), int(request.ny)
                    if not (1 <= nx <= MAX_HEATMAP_EDGE
                            and 1 <= ny <= MAX_HEATMAP_EDGE):
                        raise ValueError(
                            f"heatmap grid {nx}x{ny} outside "
                            f"[1, {MAX_HEATMAP_EDGE}]^2")
                    # Always a fresh unseeded Phase I — certificate
                    # seeding coarsens the captured tessellation (see
                    # repro.core.heatmap), and the heat map must be a
                    # pure function of the instance for the result
                    # cache's bit-identity guarantee.
                    with span("serve/heatmap", nx=nx, ny=ny):
                        if nlcs is None or len(nlcs) == 0:
                            hm = empty_heatmap(space, nx, ny)
                        else:
                            hm = build_heatmap(nlcs, space, nx, ny)
                    responses.append(HeatmapResponse(
                        nx=hm.nx, ny=hm.ny, bounds=hm.bounds,
                        lower=tuple(float(v)
                                    for v in hm.lower.ravel()),
                        upper=tuple(float(v)
                                    for v in hm.upper.ravel())))
                elif isinstance(request, (SolveRequest,
                                          AnytimeSolveRequest)):
                    top_t = getattr(request, "top_t", 1)
                    epsilon = getattr(request, "epsilon", 0.0)
                    # Later solves in the batch see an earlier exact
                    # solve's certificate immediately.
                    active = (new_certificate if new_certificate
                              is not None else certificate)
                    with span("serve/solve", top_t=top_t,
                              epsilon=epsilon):
                        response, fresh = _solve_instance(
                            nlcs, space, top_t, epsilon, active)
                    responses.append(response)
                    if fresh is not None and new_certificate is None:
                        new_certificate = fresh
                else:
                    responses.append(ErrorResponse(
                        message=f"unhandled request {request!r}"))
            except ValueError as exc:
                responses.append(ErrorResponse(message=str(exc)))
    return responses, new_certificate


class QueryService:
    """Batched request execution over an :class:`InstanceRegistry`.

    Parameters
    ----------
    registry:
        An existing registry to serve; default builds a fresh one.
    store:
        NLC storage backend for publishes through this service
        (``resolve_store_name`` semantics).
    cache_bytes:
        Byte budget for the per-instance result cache
        (:class:`repro.serve.cache.ResultCache`; default 64 MiB).
        Before a request reaches the solver it is looked up under its
        canonical key (:func:`repro.serve.protocol.request_key`) and
        the instance's current epoch; hits return the stored response
        object — bit-identical to a fresh solve because every solver
        is deterministic.  Identical requests *within* one batch
        collapse to one computation the same way.  ``0`` disables
        caching (the benchmark's cold arm).
    """

    def __init__(self, registry: InstanceRegistry | None = None, *,
                 store: str | None = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.registry = (InstanceRegistry(store=store)
                         if registry is None else registry)
        self.cache = ResultCache(max_bytes=cache_bytes)

    # -- lifecycle ----------------------------------------------------- #

    def publish(self, problem: MaxBRkNNProblem, *,
                store: str | None = None) -> ServedInstance:
        """Publish an instance through the registry (see
        :meth:`InstanceRegistry.publish`)."""
        return self.registry.publish(problem, store=store)

    def close(self) -> None:
        """Release every instance (idempotent)."""
        self.registry.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------- #

    def execute(self, requests: Sequence[Any]) -> list[Any]:
        """Execute one batch; responses align with ``requests``.

        Each request is first looked up in the result cache under its
        canonical key and the instance's current epoch; only cache
        misses reach the solver, with identical misses *within* the
        batch collapsed to one execution.  Stored responses are frozen
        dataclasses, so a hit is the original computed object —
        bit-identity with a fresh solve is structural.
        """
        _SERVE_BATCHES.add(1)
        _SERVE_REQUESTS.add(len(requests))
        responses: list[Any] = [None] * len(requests)
        with span("serve/batch", requests=len(requests)):
            groups: dict[str, list[int]] = {}
            for i, request in enumerate(requests):
                groups.setdefault(request.instance, []).append(i)
            for instance_id, positions in groups.items():
                try:
                    instance = self.registry.get(instance_id)
                except ValueError as exc:
                    for i in positions:
                        responses[i] = ErrorResponse(message=str(exc))
                    continue
                # The epoch is read once per group: a concurrent bump
                # makes this group's stores land under the old epoch,
                # where the next lookup treats them as stale — never
                # served across an invalidation.
                epoch = instance.epoch
                miss_keys: list[str] = []
                targets: dict[str, list[int]] = {}
                for i in positions:
                    key = request_key(requests[i])
                    if key in targets:
                        targets[key].append(i)  # in-batch duplicate
                        continue
                    cached = self.cache.get(instance_id, key, epoch)
                    if cached is not None:
                        responses[i] = cached
                        continue
                    targets[key] = [i]
                    miss_keys.append(key)
                if miss_keys:
                    group = [requests[targets[key][0]]
                             for key in miss_keys]
                    answers, fresh = execute_requests(
                        instance.problem, instance.ranks, instance.nlcs,
                        instance.space, group, instance.certificate())
                    if fresh is not None:
                        instance.record_certificate(*fresh)
                    for key, answer in zip(miss_keys, answers):
                        if not isinstance(answer, ErrorResponse):
                            self.cache.put(instance_id, key, epoch,
                                           answer)
                        for i in targets[key]:
                            responses[i] = answer
        return responses
