"""Phase II of MaxFirst: construct the optimal region from a quadrant.

Given a maximum-score quadrant ``Q``, the optimal region is the
intersection of the disks in ``Q.C``.  Algorithm 2 of the paper avoids
intersecting all of them: it orders the NLCs by the shortest distance from
the quadrant centre ``s`` to their circumference and stops as soon as the
next circumference is farther from ``s`` than any boundary point of the
overlap built so far (``d_max``) — such a disk cannot clip the region.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.quadrant import Quadrant
from repro.geometry.arcs import ArcRegion
from repro.geometry.intersection import (IncrementalDiskIntersection,
                                         intersect_disks)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics

#: ``(cover, score, rect)``: one region Phase I found — its cover
#: ``Q.C`` as sorted row indices into the whole NLC set, the cover's
#: score sum ``m̂in``, and the quadrant that accepted it.  Solver runs,
#: tile outputs and serve certificates share this one shape.
FoundRegion = tuple[tuple[int, ...], float, Rect]

#: Deterministic work counter: optimal regions grown (one per distinct
#: cover after Phase II deduplication).
_REGION_GROWS = _obs_metrics.counter("region_grows")
#: Deterministic work counter: disks Algorithm 2 actually clipped into
#: regions (the sum of ``clipping_count`` over all grown regions) — the
#: direct measure of Phase II work the ``d_max`` early stop saves.
_PHASE2_CLIPS = _obs_metrics.counter("phase2_clips")


@dataclass(frozen=True)
class OptimalRegion:
    """One optimal region of a MaxBRkNN instance.

    Attributes
    ----------
    score:
        The influence every location in the region attains (the maximum).
    shape:
        The region geometry (intersection of NLC disks), or ``None`` for
        the degenerate zero-score case where no NLC covers the quadrant —
        then any location works and ``seed_quadrant`` is as good as any.
    seed_quadrant:
        The Phase I quadrant the region was grown from.
    cover:
        Indices (into the solver's NLC set) of the disks covering the
        quadrant — the region is exactly their intersection.
    clipping_count:
        How many of those disks Algorithm 2 actually had to intersect
        before the ``d_max`` early stop fired (a measure of the shortcut's
        effectiveness).
    """

    score: float
    shape: ArcRegion | None
    seed_quadrant: Rect
    cover: tuple[int, ...]
    clipping_count: int

    @property
    def area(self) -> float:
        if self.shape is None:
            return self.seed_quadrant.area
        return self.shape.area

    def representative_point(self) -> Point:
        """A concrete optimal location inside the region."""
        if self.shape is None:
            return self.seed_quadrant.center
        return self.shape.representative_point()

    def contains_point(self, x: float, y: float,
                       tol: float = 1e-9) -> bool:
        """True when ``(x, y)`` belongs to the optimal region."""
        if self.shape is None:
            return self.seed_quadrant.contains_point(x, y)
        return self.shape.contains_point(x, y, tol=tol)


def found_regions(accepted: Iterable[Quadrant],
                  rows: np.ndarray | None = None) -> list[FoundRegion]:
    """The found regions of accepted quadrants, in acceptance order.

    ``rows`` maps the covers of a search run over a subset of the store
    (a tile's halo: ``rows[i]`` is the store row of its disk ``i``,
    ascending) into whole-set rows.
    """
    return [(tuple((quad.containing if rows is None
                    else rows[quad.containing]).tolist()),
             quad.min_hat, quad.rect) for quad in accepted]


def select_found(found: Iterable[FoundRegion],
                 floor: float) -> list[FoundRegion]:
    """Phase II's selection, shared by every caller that grows regions:
    keeps discovery order, drops scores below ``floor`` (a top-1 tie
    floor; ``-inf`` keeps every tier), and keeps each distinct cover's
    first entry — the quadrant every execution mode grows it from."""
    seen: set[tuple[int, ...]] = set()
    kept: list[FoundRegion] = []
    for cover, score, rect in found:
        if score < floor or cover in seen:
            continue
        seen.add(cover)
        kept.append((cover, score, rect))
    return kept


def keep_top_t(regions: list[OptimalRegion], top_t: int,
               tol: float) -> list[OptimalRegion]:
    """Regions whose score ties one of the ``top_t`` best distinct
    scores — a top-t solve's tier cut, applied after growing."""
    distinct: list[float] = []
    for region in regions:  # already sorted descending
        if not distinct or distinct[-1] - region.score > tol:
            distinct.append(region.score)
        if len(distinct) > top_t:
            break
    cutoff = distinct[min(top_t, len(distinct)) - 1] - tol
    return [r for r in regions if r.score >= cutoff]


def compute_optimal_region(quadrant_rect: Rect,
                           cover: np.ndarray | Sequence[int],
                           nlcs: CircleSet, score: float,
                           tol: float = 1e-9) -> OptimalRegion:
    """Algorithm 2: grow the optimal region from a quadrant.

    ``cover`` are the indices of the NLCs containing the quadrant
    (``Q.C``).  The distance ordering and the ``d_max`` stopping rule
    follow the pseudocode; the disk-intersection kernel is the
    :class:`~repro.geometry.intersection.IncrementalDiskIntersection`
    clipper, which keeps per-circle interval state across additions and
    is bit-identical to re-running ``intersect_disks`` from scratch on
    every step (the pre-PR shape of this loop, preserved as
    :func:`compute_optimal_region_reference`).  The clip ordering is
    seeded with one vectorised ``signed_boundary_distances`` call over
    the cover instead of one scalar ``Circle`` computation per disk.
    """
    _REGION_GROWS.add()
    cover_tuple = tuple(int(i) for i in cover)
    if not cover_tuple:
        return OptimalRegion(score=score, shape=None,
                             seed_quadrant=quadrant_rect,
                             cover=(), clipping_count=0)

    s = quadrant_rect.center
    if len(cover_tuple) == 1:
        only = nlcs.circle(cover_tuple[0])
        shape = intersect_disks([only], tol=tol)
        _PHASE2_CLIPS.add()
        return OptimalRegion(score=score, shape=shape,
                             seed_quadrant=quadrant_rect,
                             cover=cover_tuple, clipping_count=1)

    # Ascending (shortest distance from s to circumference, NLC index) —
    # the heap pop order of the reference path, produced by one SoA pass
    # over the CircleSet arrays.  The quadrant is inside every covering
    # disk, so the signed distance r - dist(s, centre) is non-negative
    # (up to rounding at the quadrant's own corners; clamp for safety).
    cover_arr = np.asarray(cover_tuple, dtype=np.int64)
    dist = np.maximum(
        nlcs.signed_boundary_distances(s.x, s.y, cover_arr), 0.0)
    order = np.lexsort((cover_arr, dist))

    clipper = IncrementalDiskIntersection(tol=tol)
    first = int(cover_arr[order[0]])
    second = int(cover_arr[order[1]])
    clipper.add(nlcs.circle(first))
    clipper.add(nlcs.circle(second))
    selected = [first, second]
    region = clipper.region()
    d_max = region.max_distance_from(s.x, s.y)

    for pos in range(2, order.shape[0]):
        if dist[order[pos]] >= d_max:
            break  # no remaining disk can clip the overlap (Algorithm 2)
        idx = int(cover_arr[order[pos]])
        selected.append(idx)
        clipper.add(nlcs.circle(idx))
        region = clipper.region()
        d_max = region.max_distance_from(s.x, s.y)

    _PHASE2_CLIPS.add(len(selected))
    return OptimalRegion(score=score, shape=region,
                         seed_quadrant=quadrant_rect,
                         cover=cover_tuple, clipping_count=len(selected))


def compute_optimal_region_reference(
        quadrant_rect: Rect, cover: np.ndarray, nlcs: CircleSet,
        score: float, tol: float = 1e-9) -> OptimalRegion:
    """The pre-optimisation Algorithm 2 loop, kept verbatim as the
    identity oracle for :func:`compute_optimal_region`.

    Scalar ``Circle`` heap seeding and a from-scratch
    :func:`intersect_disks` rebuild on every accepted disk.  No work
    counters — ``benchmarks/bench_phase2_nlc.py`` and the regression
    tests run it inside counter-isolated scopes to assert per-region
    identity without perturbing the gated counts.
    """
    cover_tuple = tuple(int(i) for i in cover)
    if not cover_tuple:
        return OptimalRegion(score=score, shape=None,
                             seed_quadrant=quadrant_rect,
                             cover=(), clipping_count=0)

    s = quadrant_rect.center
    if len(cover_tuple) == 1:
        only = nlcs.circle(cover_tuple[0])
        shape = intersect_disks([only], tol=tol)
        return OptimalRegion(score=score, shape=shape,
                             seed_quadrant=quadrant_rect,
                             cover=cover_tuple, clipping_count=1)

    heap: list[tuple[float, int]] = []
    for idx in cover_tuple:
        c = nlcs.circle(idx)
        d = max(c.signed_boundary_distance(s.x, s.y), 0.0)
        heap.append((d, idx))
    heapq.heapify(heap)

    _, first = heapq.heappop(heap)
    _, second = heapq.heappop(heap)
    selected = [first, second]
    region = intersect_disks(nlcs.circles(selected), tol=tol)
    d_max = region.max_distance_from(s.x, s.y)

    while heap:
        d, idx = heapq.heappop(heap)
        if d >= d_max:
            break
        selected.append(idx)
        region = intersect_disks(nlcs.circles(selected), tol=tol)
        d_max = region.max_distance_from(s.x, s.y)

    return OptimalRegion(score=score, shape=region,
                         seed_quadrant=quadrant_rect,
                         cover=cover_tuple, clipping_count=len(selected))
