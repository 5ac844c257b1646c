"""MaxOverlap (Wong et al., PVLDB 2009) — the paper's comparator.

Reimplemented from the pipeline quoted in Section II of the MaxFirst
paper:

  (a) index the customer objects and service sites;
  (b) compute the NLC of each object and index the NLCs;
  (c) compute the intersection points of each pair of NLCs;
  (d) for each intersection point, determine the NLCs that cover it;
  (e) return the point covered by the largest (score) mass and the overlap
      of its covering NLCs as the optimal region.

The asymptotic bottleneck is step (c): the number of NLC pairs — and hence
intersection points — grows quadratically with ``|O|`` and rapidly with
``k`` (bigger circles overlap more).  That is precisely the behaviour
Figures 10-12 of the paper measure, so this implementation keeps the
algorithmic shape while batching the arithmetic with numpy: the Python
constant factor shrinks, the asymptotics (what the figures compare) are
untouched.

Two deliberate robustness extensions over the original:

* isolated NLCs (no intersection with any other NLC) contribute their
  centre as a candidate point, so instances violating MaxOverlap's
  every-NLC-intersects-another assumption still solve correctly;
* per-NLC *scores* are accumulated instead of counts, so weighted objects
  and non-uniform probability models work too (the original assumes equal
  probabilities — comparisons against the paper's MaxOverlap only use the
  uniform model, as the paper itself does).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.core.region import compute_optimal_region
from repro.core.result import MaxBRkNNResult
from repro.core.scoring import neighborhood_cover, neighborhood_score
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet


@dataclass(frozen=True)
class MaxOverlapStats:
    """Work counters for one MaxOverlap run.

    ``candidate_pairs`` are bounding-box-level collisions tested exactly;
    ``intersecting_pairs`` of those truly intersect; each contributes up to
    two ``intersection_points`` (step (c)).  ``coverage_tests`` counts
    point-in-disk evaluations performed in step (d).
    """

    nlc_count: int
    candidate_pairs: int
    intersecting_pairs: int
    intersection_points: int
    coverage_tests: int
    # Distinct candidate locations after coincident points (piles of
    # pairwise intersections at shared sites) are merged.
    distinct_candidates: int = 0


@dataclass(frozen=True)
class MaxOverlapResult(MaxBRkNNResult):
    """MaxOverlap's result: the shared result surface plus its counters."""

    overlap_stats: MaxOverlapStats | None = None


@dataclass
class _SearchOutcome:
    """Output of the search stage: the exact best score, the candidate
    indices attaining it, and the work counters (consumed by the region
    stage and the engine pipeline's instrumentation)."""

    best: float
    best_idx: list[int]
    candidates: np.ndarray
    stats: MaxOverlapStats
    # Time spent on pair enumeration/dedup inside search (lets solve_nlcs
    # keep its historical pairs/coverage timing split).
    pairs_seconds: float = 0.0


class MaxOverlap:
    """The MaxOverlap solver.

    Parameters
    ----------
    boundary_tol:
        Slack for step (d)'s closed-disk coverage test: an intersection
        point lies exactly on two circumferences, where exact arithmetic
        would count both disks; the tolerance restores that under floats.
    grid_target_per_cell:
        Sizing knob for the uniform bucket grid used to enumerate pairs.
    keep_zero_score_nlcs:
        Passed to :func:`repro.core.nlc.build_nlcs`.
    """

    def __init__(self, boundary_tol: float | None = None,
                 grid_target_per_cell: float = 4.0,
                 keep_zero_score_nlcs: bool = False) -> None:
        self.boundary_tol = boundary_tol
        self.grid_target_per_cell = grid_target_per_cell
        self.keep_zero_score_nlcs = keep_zero_score_nlcs

    def solve(self, problem: MaxBRkNNProblem) -> MaxOverlapResult:
        """Run the full MaxOverlap pipeline on a problem instance."""
        t0 = time.perf_counter()
        nlcs = build_nlcs(problem, keep_zero_score=self.keep_zero_score_nlcs)
        t1 = time.perf_counter()
        if len(nlcs) == 0:
            # Legal degenerate instance (e.g. all weights zero).
            return MaxOverlapResult(
                score=0.0, regions=(), nlcs=nlcs,
                space=problem.data_bounds(), stats=None,
                overlap_stats=MaxOverlapStats(0, 0, 0, 0, 0, 0),
                timings={"nlc": t1 - t0})
        result = self.solve_nlcs(nlcs)
        result.timings["nlc"] = t1 - t0
        return result

    def solve_nlcs(self, nlcs: CircleSet,
                   space: Rect | None = None) -> MaxOverlapResult:
        """Solve over an explicit NLC set."""
        if len(nlcs) == 0:
            raise ValueError("cannot solve over an empty NLC set")
        if space is None:
            space = nlc_space(nlcs)
        tol = self.resolve_tol(space)

        t0 = time.perf_counter()
        grid = self.build_index(nlcs)
        t05 = time.perf_counter()
        search = self.search(nlcs, grid, tol)
        t2 = time.perf_counter()
        regions = self.build_regions(nlcs, grid, search, tol)
        t3 = time.perf_counter()

        return MaxOverlapResult(
            score=search.best, regions=tuple(regions), nlcs=nlcs,
            space=space, stats=None, overlap_stats=search.stats,
            timings={"pairs": search.pairs_seconds + (t05 - t0),
                     "coverage": (t2 - t05) - search.pairs_seconds,
                     "region": t3 - t2})

    # -- staged pieces (composed by solve_nlcs and the engine pipeline) -- #

    def resolve_tol(self, space: Rect) -> float:
        """The effective boundary tolerance for a data space."""
        if self.boundary_tol is not None:
            return self.boundary_tol
        return 1e-9 * max(space.width, space.height, 1.0)

    def build_index(self, nlcs: CircleSet) -> "_CircleGrid":
        """Stage (b): bucket the NLC bounding boxes into a uniform grid."""
        return _CircleGrid(nlcs, self.grid_target_per_cell)

    def search(self, nlcs: CircleSet, grid: "_CircleGrid",
               tol: float) -> "_SearchOutcome":
        """Stages (c)-(e): candidate points, coverage, exact best."""
        t0 = time.perf_counter()
        pairs_a, pairs_b, candidate_pairs = grid.intersecting_pairs()
        points, isolated_mask = _intersection_points(nlcs, pairs_a, pairs_b)
        # Isolated NLCs (never intersected) seed their centres as
        # candidates; NLCs that do intersect others are represented by the
        # intersection points themselves (the region-to-point argument).
        centers = np.column_stack(
            (nlcs.cx[isolated_mask], nlcs.cy[isolated_mask]))
        candidates = (np.vstack((points, centers))
                      if centers.size else points)
        if candidates.shape[0] == 0:
            # Single NLC (or all concentric): its centre is as good as any.
            candidates = np.column_stack((nlcs.cx[:1], nlcs.cy[:1]))
        # Deduplicate coincident candidates.  Every customer's k-th NLC
        # passes exactly through its k-th nearest site, so with c
        # customers per site ~c^2/2 pairwise intersection points pile up
        # AT the site — one distinct location.  Quantising at the
        # boundary tolerance collapses them; the pair/point counts (the
        # paper's asymptotic story) are recorded before deduplication.
        quantum = max(tol, 1e-300)
        keys = np.round(candidates / quantum).astype(np.int64)
        _, unique_idx = np.unique(keys, axis=0, return_index=True)
        candidates = candidates[np.sort(unique_idx)]
        pairs_seconds = time.perf_counter() - t0

        upper, coverage_tests = grid.coverage_scores(candidates, tol)
        # The closed-disk coverage sum over-counts exactly at points where
        # circumferences meet (pervasive: every NLC passes through a site).
        # Refine the top candidates with the exact region-semantics local
        # score, best-first with early exit (region semantics — see
        # repro.core.scoring).
        order = np.argsort(-upper, kind="stable")
        best = -np.inf
        score_tie = 0.0
        best_idx: list[int] = []
        for idx in order:
            idx = int(idx)
            if upper[idx] < best - score_tie:
                break
            x, y = float(candidates[idx, 0]), float(candidates[idx, 1])
            bucket = grid.point_candidates(x, y)
            value = neighborhood_score(nlcs, x, y, tol=tol,
                                       candidates=bucket)
            if value > best + score_tie:
                best = value
                score_tie = 1e-9 * max(1.0, abs(best))
                best_idx = [idx]
            elif value >= best - score_tie:
                best_idx.append(idx)

        stats = MaxOverlapStats(
            nlc_count=len(nlcs),
            candidate_pairs=candidate_pairs,
            intersecting_pairs=int(pairs_a.shape[0]),
            intersection_points=int(points.shape[0]),
            coverage_tests=coverage_tests,
            distinct_candidates=int(candidates.shape[0]),
        )
        return _SearchOutcome(best=best, best_idx=best_idx,
                              candidates=candidates, stats=stats,
                              pairs_seconds=pairs_seconds)

    def build_regions(self, nlcs: CircleSet, grid: "_CircleGrid",
                      search: "_SearchOutcome", tol: float) -> list:
        """Grow the optimal region of each distinct best-scoring cover."""
        regions = []
        seen_covers: set[tuple[int, ...]] = set()
        for idx in search.best_idx:
            x = float(search.candidates[idx, 0])
            y = float(search.candidates[idx, 1])
            bucket = grid.point_candidates(x, y)
            _, cover = neighborhood_cover(nlcs, x, y, tol=tol,
                                          candidates=bucket)
            cover = np.sort(cover)
            key = tuple(int(i) for i in cover)
            if key in seen_covers:
                continue
            seen_covers.add(key)
            regions.append(compute_optimal_region(
                Rect(x, y, x, y), cover, nlcs, score=search.best))
        regions.sort(key=lambda r: -r.score)
        return regions


# ---------------------------------------------------------------------- #
# Numpy bucket grid over circle bounding boxes
# ---------------------------------------------------------------------- #

class _CircleGrid:
    """Bins circle bounding boxes into a uniform grid, fully vectorised.

    Produces (1) all intersecting circle pairs, each exactly once, and
    (2) batched coverage scores for candidate points.  The pure-object
    :class:`~repro.index.grid.UniformGrid` provides the same service for
    generic items; this variant avoids per-circle Python objects because
    MaxOverlap routinely handles 10^5 NLCs.
    """

    def __init__(self, nlcs: CircleSet, target_per_cell: float) -> None:
        self.nlcs = nlcs
        bounds = nlcs.bounding_box()
        n = len(nlcs)
        area = max(bounds.area, 1e-30)
        density_edge = math.sqrt(area * target_per_cell / n)
        # Size cells from the NLC radius distribution, not the circle
        # extent: with few sites every NLC is huge relative to the
        # domain, and extent-sized cells degenerate to a handful of
        # buckets that each hold (and pair up) every circle.  Half
        # the median radius keeps buckets below the typical
        # circle, so the sweep only pairs genuinely nearby circles;
        # the density edge still bounds the grid for tiny-radius sets.
        median_r = float(np.median(nlcs.r)) if n else 0.0
        cell = max(median_r / 2.0, density_edge)
        if cell <= 0.0:
            cell = max(bounds.diagonal, 1.0) / 16.0
        self.cell = cell
        self.x0 = bounds.xmin
        self.y0 = bounds.ymin
        self.nx = max(1, math.ceil(bounds.width / cell))
        self.ny = max(1, math.ceil(bounds.height / cell))

        cx, cy, r = nlcs.cx, nlcs.cy, nlcs.r
        self._ix0 = self._clip_x(np.floor((cx - r - self.x0) / cell))
        self._ix1 = self._clip_x(np.floor((cx + r - self.x0) / cell))
        self._iy0 = self._clip_y(np.floor((cy - r - self.y0) / cell))
        self._iy1 = self._clip_y(np.floor((cy + r - self.y0) / cell))

        wx = self._ix1 - self._ix0 + 1
        wy = self._iy1 - self._iy0 + 1
        counts = wx * wy
        total = int(counts.sum())
        circ = np.repeat(np.arange(n, dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        rep_wx = np.repeat(wx, counts)
        ox = offsets % rep_wx
        oy = offsets // rep_wx
        cell_ids = ((np.repeat(self._iy0, counts) + oy) * self.nx
                    + np.repeat(self._ix0, counts) + ox)

        order = np.argsort(cell_ids, kind="stable")
        self._cell_ids = cell_ids[order]
        self._cell_circles = circ[order]
        self._unique_cells, self._cell_starts = np.unique(
            self._cell_ids, return_index=True)

    def _clip_x(self, arr: np.ndarray) -> np.ndarray:
        return np.clip(arr, 0, self.nx - 1).astype(np.int64)

    def _clip_y(self, arr: np.ndarray) -> np.ndarray:
        return np.clip(arr, 0, self.ny - 1).astype(np.int64)

    def _bucket(self, pos: int) -> np.ndarray:
        start = self._cell_starts[pos]
        end = (self._cell_starts[pos + 1]
               if pos + 1 < len(self._cell_starts)
               else len(self._cell_ids))
        return self._cell_circles[start:end]

    def point_candidates(self, x: float, y: float) -> np.ndarray:
        """Circles whose bounding box covers the cell of ``(x, y)`` — a
        superset of the disks whose closure contains the point."""
        cell_id = (self._clip_y(np.floor((np.asarray(y) - self.y0)
                                         / self.cell)) * self.nx
                   + self._clip_x(np.floor((np.asarray(x) - self.x0)
                                           / self.cell)))
        pos = int(np.searchsorted(self._unique_cells, cell_id))
        if (pos >= len(self._unique_cells)
                or self._unique_cells[pos] != cell_id):
            return np.zeros(0, dtype=np.int64)
        return self._bucket(pos)

    def intersecting_pairs(self) -> tuple[np.ndarray, np.ndarray, int]:
        """All pairs ``(i, j)``, ``i < j``, of truly intersecting disks.

        Each pair is tested exactly once: within a bucket, a pair counts
        only when this bucket is the lexicographically smallest cell the
        two boxes share.
        """
        nlcs = self.nlcs
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        candidate_pairs = 0
        for pos, cell_id in enumerate(self._unique_cells):
            bucket = self._bucket(pos)
            m = bucket.shape[0]
            if m < 2:
                continue
            cell_x = int(cell_id % self.nx)
            cell_y = int(cell_id // self.nx)
            i_idx, j_idx = np.triu_indices(m, k=1)
            a = bucket[i_idx]
            b = bucket[j_idx]
            candidate_pairs += a.shape[0]
            # Ownership: emit only from the smallest shared cell.
            own_x = np.maximum(self._ix0[a], self._ix0[b])
            own_y = np.maximum(self._iy0[a], self._iy0[b])
            own = (own_x == cell_x) & (own_y == cell_y)
            if not own.any():
                continue
            a = a[own]
            b = b[own]
            dx = nlcs.cx[a] - nlcs.cx[b]
            dy = nlcs.cy[a] - nlcs.cy[b]
            rsum = nlcs.r[a] + nlcs.r[b]
            hit = dx * dx + dy * dy <= rsum * rsum
            if hit.any():
                out_a.append(a[hit])
                out_b.append(b[hit])
        if out_a:
            return (np.concatenate(out_a), np.concatenate(out_b),
                    candidate_pairs)
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, candidate_pairs

    def coverage_scores(self, points: np.ndarray,
                        tol: float) -> tuple[np.ndarray, int]:
        """Step (d): total covering score at each candidate point."""
        nlcs = self.nlcs
        pts = np.asarray(points, dtype=np.float64)
        px_cells = self._clip_x(np.floor((pts[:, 0] - self.x0) / self.cell))
        py_cells = self._clip_y(np.floor((pts[:, 1] - self.y0) / self.cell))
        point_cells = py_cells * self.nx + px_cells

        order = np.argsort(point_cells, kind="stable")
        scores = np.zeros(pts.shape[0], dtype=np.float64)
        tests = 0

        sorted_cells = point_cells[order]
        boundaries = np.flatnonzero(np.diff(sorted_cells)) + 1
        group_starts = np.concatenate(([0], boundaries))
        group_ends = np.concatenate((boundaries, [len(sorted_cells)]))
        for gs, ge in zip(group_starts, group_ends):
            cell_id = sorted_cells[gs]
            pos = np.searchsorted(self._unique_cells, cell_id)
            if (pos >= len(self._unique_cells)
                    or self._unique_cells[pos] != cell_id):
                continue
            bucket = self._bucket(pos)
            idx = order[gs:ge]
            tests += bucket.shape[0] * idx.shape[0]
            # cover_scores_at_points chunks its own points x circles
            # broadcast (~16 MB cap), so dense cells on skewed data no
            # longer need an outer chunking loop here.
            scores[idx] = nlcs.cover_scores_at_points(
                pts[idx], bucket, tol=tol)
        return scores, tests


def _intersection_points(nlcs: CircleSet, pairs_a: np.ndarray,
                         pairs_b: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Step (c), batched: circumference intersection points of every pair.

    Returns ``(points, isolated_mask)`` where ``isolated_mask`` flags NLCs
    that appear in no intersecting pair.
    """
    n = len(nlcs)
    isolated = np.ones(n, dtype=bool)
    if pairs_a.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.float64), isolated
    isolated[pairs_a] = False
    isolated[pairs_b] = False

    ax, ay, ar = nlcs.cx[pairs_a], nlcs.cy[pairs_a], nlcs.r[pairs_a]
    bx, by, br = nlcs.cx[pairs_b], nlcs.cy[pairs_b], nlcs.r[pairs_b]
    dx = bx - ax
    dy = by - ay
    d = np.hypot(dx, dy)
    # Concentric pairs (d == 0) have no circumference crossings; contained
    # pairs (d < |ar - br|) neither.  Both still intersect as *disks* so
    # they were correctly counted as intersecting, they just add no points.
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = (d * d + ar * ar - br * br) / (2.0 * d)
        h2 = ar * ar - ell * ell
    valid = (d > 0.0) & (h2 >= 0.0) & (d >= np.abs(ar - br))
    if not valid.any():
        return np.zeros((0, 2), dtype=np.float64), isolated

    ell = ell[valid]
    h = np.sqrt(np.maximum(h2[valid], 0.0))
    ux = dx[valid] / d[valid]
    uy = dy[valid] / d[valid]
    px = ax[valid] + ell * ux
    py = ay[valid] + ell * uy
    first = np.column_stack((px - h * uy, py + h * ux))
    second = np.column_stack((px + h * uy, py - h * ux))
    return np.vstack((first, second)), isolated
