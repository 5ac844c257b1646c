"""MaxFirst — Algorithm 1 (Phase I) and the full two-phase solver.

Phase I recursively partitions the data space into quadrants, always
expanding the quadrant with the largest upper bound ``m̂ax``.  A quadrant is

* **split** while its ``m̂ax`` exceeds the best proven lower bound
  ``MaxMin`` (or equals it but the quadrant is not yet consistent and no
  found region explains it),
* **pruned** by Theorem 2 when ``m̂ax < MaxMin``,
* **pruned** by Theorem 3 when its intersecting NLCs are a subset of a
  found region's covering NLCs (its optimal region was already discovered),
* **accepted** when it is *consistent* (``m̂ax == m̂in``) at the maximum.

Phase II (:mod:`repro.core.region`) grows each accepted quadrant into the
actual optimal region.

Region semantics and the intersection-point problem
---------------------------------------------------
The problem asks for *maximal consistent regions* (full-dimensional), so
the optimum is the essential supremum of ``total_score`` — a point where
many circumferences merely meet does not count (see
:mod:`repro.core.scoring`).  ``Q.I`` therefore uses open-disk
intersection: a disk grazing a quadrant at a boundary point is excluded.
This is what lets quadrants next to a circle-coincidence point become
consistent, exactly as the paper's termination proof requires.

When every NLC in ``Q.I - Q.C`` passes through one common point ``p``
inside ``Q`` (Algorithm 1's intersection-point problem — pervasive in
practice, because every customer's ``k``-th NLC passes through its
``k``-th nearest site), the regular centre split makes slow progress.
Following the pseudocode we detect the situation after ``m`` consecutive
splits that leave ``Q.I`` and ``m̂in`` unchanged and split at ``p``; the
through-circles then graze the children only at their corner ``p`` and
drop out of their ``Q.I`` sets.  A resolution guard force-closes quadrants
below float resolution (near-coincidences tighter than the predicate
noise floor); it reports the quadrant's proven lower bound and counts the
event in ``stats.resolution_closed``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.bounds import ClassificationBackend, make_backend
from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.core.quadrant import MaxFirstStats, Quadrant, _MutableStats
from repro.core.refine import refine_quadrant
from repro.core.region import (OptimalRegion, compute_optimal_region,
                               found_regions, keep_top_t, select_found)
from repro.core.result import MaxBRkNNResult
from repro.geometry.circle import circle_circle_intersection
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet
from repro.obs.trace import span

# Theorem 3 is load-bearing: without it, quadrants straddling a found
# region's boundary re-split forever (the boundary is a curve — its
# tessellation grows exponentially with depth), so there is no "off" mode.
_THEOREM3_MODES = ("subset", "equality")

# Unit roundoff of float64; sizes the Theorem 3 score-sum margin so it
# dominates worst-case summation error for any cover size.
_FLOAT_EPS = float(np.finfo(np.float64).eps)


class _FoundCovers:
    """Registry of found-region covers behind the Theorem 3 tests.

    The solver consults it on (almost) every pop, so representation
    matters.  Each cover is stored as a membership bitmap over the NLC
    index space plus its size and score sum; the subset test
    ``Q.I ⊆ cover`` is then a vectorised gather-and-all with two early
    exits — on cardinality (a strictly larger ``Q.I`` cannot be a
    subset; exact) and on score sums (``m̂ax`` above the cover's sum
    rules the subset out for non-negative scores; guarded by a margin
    sized from the summand counts so it provably dominates worst-case
    float-summation error).
    """

    def __init__(self, n_nlcs: int, scores_nonneg: bool) -> None:
        self._n = n_nlcs
        self._scores_nonneg = scores_nonneg
        self._keys: set[tuple[int, ...]] = set()
        self._masks: list[np.ndarray] = []
        self._sizes: list[int] = []
        self._sums: list[float] = []

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, cover: tuple[int, ...], score_sum: float,
            members: tuple[int, ...] | None = None) -> bool:
        """Record a found region's cover; False when already present.

        ``cover`` is sorted NLC indices in *this search's* index space
        and ``score_sum`` its ``m̂in`` sum.  Besides the search's own
        acceptances, callers seed covers found *outside* it (another
        tile, an earlier request): Theorem 3 then prunes this search's
        quadrants whose ``Q.I`` the cover absorbs — the cross-tile
        analogue of the in-search test, and sound for the same reason:
        a tied region inside such a quadrant must equal the seeded
        region, which the merge step already reports.

        A search running over a *subset* of the store (a tile's halo)
        passes ``members``: the positions of the cover's disks inside
        that subset (the rest cannot be masked; ``cover`` names them by
        distinct negative keys).  ``cover`` itself keeps every member,
        so the dedupe key, the cardinality early exit, and the score-sum
        margin are those of the full cover — any ``Q.I`` of this search
        lies wholly inside the subset, making the membership test over
        ``members`` equivalent to the full-set test, bit for bit.
        """
        if cover in self._keys:
            return False
        self._keys.add(cover)
        if members is None:
            members = cover
        mask = np.zeros(self._n, dtype=bool)
        if members:
            mask[np.asarray(members, dtype=np.int64)] = True
        self._masks.append(mask)
        self._sizes.append(len(cover))
        self._sums.append(float(score_sum))
        return True

    def prunes(self, quad: Quadrant, mode: str) -> bool:
        """The Theorem 3 test: is ``Q.I`` a subset of (or, in
        ``equality`` mode, equal to) a found cover?"""
        if not self._keys:
            return False
        inter = quad.intersecting
        m = inter.shape[0]
        if mode == "equality":
            return any(size == m and bool(mask[inter].all())
                       for mask, size in zip(self._masks, self._sizes))
        max_hat = quad.max_hat
        for mask, size, cover_sum in zip(self._masks, self._sizes,
                                         self._sums):
            if m > size:
                continue
            if self._scores_nonneg:
                # A true subset forces sum(Q.I) <= cover_sum in exact
                # arithmetic.  Each float sum of n non-negative terms
                # errs by at most (n-1)·eps·sum (sequential; pairwise is
                # tighter), so a margin of 2·(|Q.I| + |cover|)·eps times
                # the larger magnitude can never skip a genuine
                # superset, whatever the cover size.
                margin = (2.0 * (m + size) * _FLOAT_EPS
                          * max(1.0, cover_sum, max_hat))
                if max_hat > cover_sum + margin:
                    continue
            if mask[inter].all():
                return True
        return False

    def any_superset(self, containing: np.ndarray,
                     clique: Iterable[int]) -> bool:
        """True when some found cover contains ``Q.C ∪ clique`` — the
        generalized Theorem 3 used by the compatibility refinement."""
        if not self._keys:
            return False
        clique_idx = np.asarray(list(clique), dtype=np.int64)
        return any(bool(mask[containing].all())
                   and bool(mask[clique_idx].all())
                   for mask in self._masks)


class MaxFirst:
    """The MaxFirst solver for the generalized MaxBRkNN problem.

    Parameters
    ----------
    m_threshold:
        The paper's ``m``: consecutive same-frontier splits tolerated
        before checking for the intersection-point problem.  Any positive
        value is correct; Figure 8 shows performance is insensitive to it
        (paper default: 4).
    backend:
        ``"vector"`` (hierarchical numpy classification, default) or
        ``"rtree"`` (paper-literal R-tree range queries).
    theorem3:
        ``"subset"`` (default; the full strength of Theorem 3) or
        ``"equality"`` (the literal pseudocode test ``Q'.C == Q.I``).
        Theorem 3 cannot be disabled: it is what terminates the
        tessellation along a found region's boundary.
    top_t:
        Return the ``t`` best *score tiers* of distinct consistent regions
        instead of only the maximum (an extension; ``top_t=1`` is the
        paper's algorithm).  Every location in a returned region attains
        at least that region's score; tiers below the maximum may be
        plateaus adjacent to a better region.  With ``top_t > 1`` the
        Theorem 2 threshold is the ``t``-th best consistent score found so
        far (conservative but exact), and found-region pruning runs on
        every pop.
    tie_tol:
        Relative tolerance for score-equality tests (floating point stands
        in for the paper's exact reals).
    resolution_fraction:
        The solver's geometric resolution as a fraction of the space
        extent: quadrants whose smaller dimension reaches it are closed
        with their proven lower bound (counted in
        ``stats.resolution_closed``), and disk/quadrant overlaps thinner
        than it are treated as non-overlaps (the graze tolerance).
        Features below the resolution — 1e-9 of the data extent by
        default — are beyond any physical siting decision.
    degeneracy_depth:
        Quadrants at or beyond this depth always run the degeneracy
        machinery (common-point detection and compatibility refinement)
        on every split.  The paper's same-frontier counter alone starves
        when many degenerate spots interleave in the heap; depth is a
        robust secondary trigger — healthy searches rarely exceed depth
        ~16, degeneracy chases exceed 25.
    keep_zero_score_nlcs:
        Passed through to :func:`repro.core.nlc.build_nlcs`.
    epsilon:
        Anytime mode (``top_t == 1`` only).  With ``epsilon > 0`` Phase I
        stops at the first pop whose ``m̂ax`` — the certified global
        upper bound, by the best-first heap order — is within a factor
        ``1 + epsilon`` of the proven lower bound ``MaxMin``: the
        returned score is a certified ``1/(1+epsilon)``-approximation of
        the optimum, reached without tessellating the last plateau to
        the resolution floor.  The certificate itself is exposed as
        :attr:`last_upper_bound` after every solve (with ``epsilon == 0``
        it equals the exact score).  ``epsilon = 0`` (default) is the
        paper's exact algorithm.
    max_iterations:
        Safety valve on heap pops; ``None`` derives a generous bound from
        the instance size.
    """

    def __init__(self, m_threshold: int = 4, backend: str = "vector",
                 theorem3: str = "subset", top_t: int = 1,
                 tie_tol: float = 1e-9,
                 resolution_fraction: float = 1e-9,
                 degeneracy_depth: int = 20,
                 keep_zero_score_nlcs: bool = False,
                 epsilon: float = 0.0,
                 max_iterations: int | None = None) -> None:
        if m_threshold < 1:
            raise ValueError("m_threshold must be positive")
        if degeneracy_depth < 1:
            raise ValueError("degeneracy_depth must be positive")
        if theorem3 not in _THEOREM3_MODES:
            raise ValueError(
                f"theorem3 must be one of {_THEOREM3_MODES}, got {theorem3!r}")
        if top_t < 1:
            raise ValueError("top_t must be positive")
        if not all(map(math.isfinite,
                       (tie_tol, resolution_fraction, epsilon))):
            raise ValueError(
                "tie_tol, resolution_fraction and epsilon must be finite")
        if tie_tol < 0 or resolution_fraction < 0:
            raise ValueError("tolerances must be non-negative")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if epsilon > 0 and top_t != 1:
            raise ValueError(
                "epsilon (anytime mode) requires top_t == 1: the top-t "
                "frontier is not a global lower bound, so an early stop "
                "certifies nothing about the lower tiers")
        self.m_threshold = m_threshold
        self.backend_name = backend
        self.theorem3 = theorem3
        self.top_t = top_t
        self.tie_tol = tie_tol
        self.resolution_fraction = resolution_fraction
        self.degeneracy_depth = degeneracy_depth
        self.keep_zero_score_nlcs = keep_zero_score_nlcs
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        #: Certified global upper bound of the most recent Phase I run:
        #: the last popped ``m̂ax`` at an anytime stop, or the final
        #: ``MaxMin`` on natural completion (then it IS the exact score).
        #: Deliberately an attribute, not a ``MaxFirstStats`` field — the
        #: stats schema is identity-checked across execution modes.
        self.last_upper_bound: float = 0.0

    # ------------------------------------------------------------------ #

    def solve(self, problem: MaxBRkNNProblem) -> MaxBRkNNResult:
        """Run the full pipeline: NLC construction, Phase I, Phase II."""
        t0 = time.perf_counter()
        nlcs = build_nlcs(problem, keep_zero_score=self.keep_zero_score_nlcs)
        t1 = time.perf_counter()
        if len(nlcs) == 0:
            # Legal degenerate instance (e.g. all weights zero): nothing
            # can score anywhere.
            return MaxBRkNNResult(
                score=0.0, regions=(), nlcs=nlcs,
                space=problem.data_bounds(),
                stats=_MutableStats().freeze(),
                timings={"nlc": t1 - t0, "phase1": 0.0, "phase2": 0.0})
        result = self.solve_nlcs(nlcs)
        result.timings["nlc"] = t1 - t0
        return result

    def solve_nlcs(self, nlcs: CircleSet,
                   space: Rect | None = None) -> MaxBRkNNResult:
        """Solve over an explicit NLC set (skips pre-processing).

        ``space`` defaults to the bounding box of the NLCs — no location
        outside it can score above zero.
        """
        if len(nlcs) == 0:
            raise ValueError("cannot solve over an empty NLC set")
        if space is None:
            space = nlc_space(nlcs)

        t0 = time.perf_counter()
        accepted, max_min, stats = self._phase1(nlcs, space)
        t1 = time.perf_counter()
        regions = self.build_regions(accepted, max_min, nlcs)
        t2 = time.perf_counter()

        return MaxBRkNNResult(
            score=max_min, regions=tuple(regions), nlcs=nlcs, space=space,
            stats=stats.freeze(),
            timings={"phase1": t1 - t0, "phase2": t2 - t1})

    # ------------------------------------------------------------------ #
    # Phase II (region construction over accepted quadrants)
    # ------------------------------------------------------------------ #

    def build_regions(self, accepted: list[Quadrant], max_min: float,
                      nlcs: CircleSet) -> list[OptimalRegion]:
        """Phase II: grow the optimal regions of the accepted quadrants.

        :func:`~repro.core.region.select_found` picks what to grow: one
        region per distinct cover (many accepted quadrants tile one
        region), superseded scores dropped in top-1 mode.
        """
        tol = self.tie_tol * max(1.0, abs(max_min))
        floor = max_min - tol if self.top_t == 1 else -math.inf
        with span("phase2/build_regions", accepted=len(accepted)):
            regions = [
                compute_optimal_region(rect, cover, nlcs, score=score)
                for cover, score, rect in select_found(
                    found_regions(accepted), floor)
            ]
            regions.sort(key=lambda r: -r.score)
            if self.top_t > 1:
                regions = keep_top_t(regions, self.top_t, tol)
        return regions

    # ------------------------------------------------------------------ #
    # Phase I
    # ------------------------------------------------------------------ #

    def run_phase1(self, nlcs: CircleSet, space: Rect, *,
                   backend: ClassificationBackend | None = None,
                   resolution: float | None = None,
                   initial_bound: float = 0.0,
                   bound_sync: Callable[[float], float] | None = None,
                   sync_interval: int = 0,
                   seed_covers: Iterable[tuple[tuple[int, ...], float]]
                   | None = None,
                   roots: "Sequence[tuple[Rect, np.ndarray]] | None" = None,
                   scores_nonneg: bool | None = None,
                   tessellation: "list[tuple[Rect, float, float]] | None"
                   = None
                   ) -> tuple[list[Quadrant], float, MaxFirstStats]:
        """Public staged entry to Phase I (the engine layer's hook).

        Parameters beyond :meth:`solve_nlcs`'s:

        backend:
            A prebuilt classification backend (so the pipeline layer can
            time index construction separately).  Must have been built
            with ``graze_tol == resolution``.
        resolution:
            Geometric resolution override.  A tile shard must run at the
            *global* space's resolution, not its tile's, or quadrant
            classification diverges from the single-process run.
        initial_bound:
            A proven global lower bound to seed ``MaxMin`` with (Theorem 2
            prunes against it from the first pop).  Only sound with
            ``top_t == 1``.
        bound_sync:
            Optional callable ``f(local_max_min) -> global_max_min``
            polled every ``sync_interval`` pops: publishes the local bound
            and returns the best bound any shard has proven.  Adopting it
            is Theorem-2-sound — the returned value is witnessed by a real
            quadrant in some shard.
        seed_covers:
            ``(cover, score_sum)`` pairs of regions other shards already
            accepted (sorted NLC indices plus their ``m̂in`` sum); a
            caller searching a subset of the set (a tile's halo) appends
            a third ``members`` element per entry (see
            :meth:`_FoundCovers.add`).
            They enter the Theorem 3 registry before the first pop, so
            this search never re-tessellates a region an earlier tile
            discovered — the main cost of naive tile sharding.  Only
            sound with ``top_t == 1`` and with index/score arrays
            identical to the seeding search's (the merge step must
            report the seeded regions).
        roots:
            ``(rect, candidate_indices)`` pairs replacing the single
            ``space`` root: every pair is classified and pushed onto one
            shared frontier, so the search pops the globally most
            promising quadrant across all of them — a tile partition run
            this way shares its ``MaxMin`` and Theorem 3 registry from
            the first pop instead of per-tile, which is what keeps
            serial sharding's overhead down to the cut tessellation.
            The rects must tile ``space`` (correctness needs full
            coverage) and each candidate set must contain every NLC that
            can influence classification inside its rect (the planner's
            halo invariant).  Only sound with ``top_t == 1``.
        scores_nonneg:
            Whether every score a seed cover can name is non-negative —
            the premise of the Theorem 3 score-sum early exit.  Defaults
            to ``nlcs``' own scores; a search over a subset of a larger
            set (a tile's halo, whose seed covers name any store row)
            passes the whole set's flag.
        tessellation:
            Optional sink list.  When given, every quadrant the search
            *finishes* — accepted, Theorem-2/3-pruned,
            refinement-pruned, resolution-closed, or still enqueued at
            an anytime stop — is appended as ``(rect, m̂in, m̂ax)``.
            Finished quadrants tile the searched space, so the sink is a
            complete bracketing of the influence surface: ``m̂in`` holds
            everywhere inside the rect, ``m̂ax`` bounds everything
            inside it.  :mod:`repro.core.heatmap` rasterises this onto a
            tile grid.  Entries may overlap (a refinement-requeued
            quadrant terminates twice); consumers must combine by max.
            Capture changes no search decision — results and stats are
            bit-identical with or without a sink.
        """
        with span("phase1/search", nlcs=len(nlcs)):
            accepted, max_min, stats = self._phase1(
                nlcs, space, backend=backend, resolution=resolution,
                initial_bound=initial_bound, bound_sync=bound_sync,
                sync_interval=sync_interval, seed_covers=seed_covers,
                roots=roots, scores_nonneg=scores_nonneg,
                tessellation=tessellation)
        return accepted, max_min, stats.freeze()

    def _phase1(self, nlcs: CircleSet, space: Rect, *,
                backend: ClassificationBackend | None = None,
                resolution: float | None = None,
                initial_bound: float = 0.0,
                bound_sync: Callable[[float], float] | None = None,
                sync_interval: int = 0,
                seed_covers: Iterable[tuple[tuple[int, ...], float]]
                | None = None,
                roots: "Sequence[tuple[Rect, np.ndarray]] | None" = None,
                scores_nonneg: bool | None = None,
                tessellation: "list[tuple[Rect, float, float]] | None"
                = None
                ) -> tuple[list[Quadrant], float, _MutableStats]:
        stats = _MutableStats()
        if resolution is None:
            resolution = (max(space.width, space.height)
                          * self.resolution_fraction)
        # The geometric resolution doubles as the graze tolerance of the
        # quadrant predicates (see CircleSet.classify_rect): overlaps
        # thinner than the resolution are treated as non-overlaps.
        if backend is None:
            backend = make_backend(self.backend_name, nlcs,
                                   graze_tol=resolution)
        if ((initial_bound or bound_sync is not None
                or seed_covers is not None or roots is not None)
                and self.top_t != 1):
            raise ValueError(
                "external state (initial_bound/bound_sync/seed_covers/"
                "roots) requires top_t == 1: the top-t frontier is not a "
                "global bound and seeded covers would mask lower tiers")
        limit = self.max_iterations
        if limit is None:
            limit = 400 * len(nlcs) + 200_000

        counter = itertools.count()  # heap tie-breaker
        heap: list[tuple[float, int, Quadrant]] = []
        sink = tessellation  # terminal-quadrant capture (None = off)
        max_min = float(initial_bound)
        # For top_t > 1 the Theorem 2 threshold is the t-th best consistent
        # score (tracked as a min-heap of the best t); for top_t == 1 it is
        # the paper's MaxMin (raised by any quadrant's m̂in).
        frontier: list[float] = []
        accepted: list[Quadrant] = []
        if scores_nonneg is None:
            scores_nonneg = (bool(len(nlcs))
                             and bool((nlcs.scores >= 0.0).all()))
        found_covers = _FoundCovers(len(nlcs), scores_nonneg=scores_nonneg)
        if seed_covers is not None:
            # 2-tuples ``(cover, score_sum)`` from whole-set callers;
            # tile searches over a halo add a third ``members`` element
            # (see :meth:`_FoundCovers.add`).
            for entry in seed_covers:
                found_covers.add(*entry)

        # The best lower-bound witness seen so far: a quadrant whose m̂in
        # raised MaxMin.  An anytime stop accepts it when nothing on the
        # accepted list ties MaxMin yet, so the reported score always has
        # an in-search region behind it (an externally seeded
        # initial_bound has no local witness; its regions live with the
        # seeding caller, which merges them back — see repro.serve).
        incumbent: Quadrant | None = None

        def push(quad: Quadrant) -> None:
            nonlocal max_min, incumbent
            stats.generated += 1
            stats.max_depth = max(stats.max_depth, quad.depth)
            if self.top_t == 1:
                if quad.min_hat > max_min:
                    max_min = quad.min_hat
                    incumbent = quad
            heapq.heappush(heap, (-quad.max_hat, next(counter), quad))

        with span("phase1/classify_root"):
            if roots is None:
                push(backend.classify(space, backend.root_candidates(),
                                      depth=0))
            else:
                for tile_rect, tile_candidates in roots:
                    push(backend.classify(tile_rect, tile_candidates,
                                          depth=0))

        prev_split: Quadrant | None = None
        same_frontier_count = 0
        pops = 0

        # Set REPRO_MAXFIRST_DEBUG=<N> to log search progress every N pops
        # (diagnosing slow convergence on adversarial instances).
        # repro: env-read(diagnostic logging cadence only — it cannot
        # change any computed value, so worker/parent divergence on this
        # variable is harmless by construction)
        debug = int(os.environ.get("REPRO_MAXFIRST_DEBUG", "0"))
        while heap:
            pops += 1
            if (bound_sync is not None and sync_interval
                    and pops % sync_interval == 0):
                # Exchange bounds with the other shards: publish ours,
                # adopt theirs when better.  Any returned value is a
                # min_hat some shard proved, so Theorem 2 stays sound.
                external = bound_sync(max_min)
                if external > max_min:
                    max_min = external
            if debug and pops % debug == 0:
                top = heap[0][2]
                print(f"[maxfirst] pops={pops} heap={len(heap)} "
                      f"maxmin={max_min:.4f} top(max={top.max_hat:.4f} "
                      f"min={top.min_hat:.4f} depth={top.depth} "
                      f"width={top.rect.width:.2e} "
                      f"nI={len(top.intersecting)}) "
                      f"accepted={len(accepted)}")
            if pops > limit:
                raise RuntimeError(
                    f"MaxFirst did not converge within {limit} iterations "
                    f"(heap size {len(heap)}, MaxMin {max_min}); this "
                    "indicates a degenerate instance below the resolution "
                    "guard — raise resolution_fraction or max_iterations")
            _, _, quad = heapq.heappop(heap)
            tol = self.tie_tol * max(1.0, abs(max_min))

            if self.epsilon > 0.0:
                # The heap is ordered by m̂ax, so the popped quadrant's
                # m̂ax bounds EVERY unexplored location: once it sinks to
                # MaxMin · (1 + ε) the incumbent is a certified
                # 1/(1+ε)-approximation and the search may stop.  Guarded
                # on a positive MaxMin — a zero lower bound certifies a
                # ratio of nothing (the m̂ax ≤ tol case exits through the
                # exact tests on its own).
                if (max_min > 0.0
                        and quad.max_hat <= max_min * (1.0 + self.epsilon)
                        + tol):
                    if (incumbent is not None
                            and not any(q.min_hat >= max_min - tol
                                        for q in accepted)):
                        self._accept(incumbent, accepted, found_covers,
                                     frontier, stats)
                    if sink is not None:
                        # Everything unexplored is terminal at an
                        # anytime stop: the popped quadrant plus the
                        # whole remaining frontier.
                        sink.append((quad.rect, quad.min_hat,
                                     quad.max_hat))
                        for _, _, rest in heap:
                            sink.append((rest.rect, rest.min_hat,
                                         rest.max_hat))
                    self.last_upper_bound = quad.max_hat
                    return accepted, max_min, stats

            if quad.max_hat < max_min - tol:
                stats.pruned_theorem2 += 1  # Theorem 2
                if sink is not None:
                    sink.append((quad.rect, quad.min_hat, quad.max_hat))
                continue

            if quad.max_hat <= max_min + tol or self.top_t > 1:
                # m̂ax == MaxMin: Theorem-3 prune, result, or keep
                # splitting.  In top-t mode the Theorem 2 threshold
                # stays low until t distinct regions exist, so — unlike
                # the t=1 pseudocode — these tests fire on every pop, or
                # the area around each found region is tessellated to
                # machine precision.  The Theorem 3 test runs before the
                # consistency test (the pseudocode orders them the other
                # way): a consistent quadrant of an already-found region
                # has Q.I equal to that region's cover, so testing
                # Q.I ⊆ cover first prunes the thousands of duplicate
                # acceptances that interior quadrants of a large optimal
                # region would otherwise produce, and a *new* tied region
                # can never be subset-pruned (equal positive score sums
                # force equal covers).
                if self._theorem3_prunes(quad, found_covers):
                    stats.pruned_theorem3 += 1
                    if sink is not None:
                        sink.append((quad.rect, quad.min_hat,
                                     quad.max_hat))
                    continue
                if quad.min_hat >= quad.max_hat - tol:
                    self._accept(quad, accepted, found_covers, frontier,
                                 stats)
                    if sink is not None:
                        sink.append((quad.rect, quad.min_hat,
                                     quad.max_hat))
                    if self.top_t > 1:
                        max_min = self._top_t_threshold(frontier)
                    continue

            # --- split ------------------------------------------------ #
            # Close at the resolution floor.  The test is on the SMALLER
            # dimension: point splits can produce sliver quadrants whose
            # aspect ratio center-splitting preserves, and a sliver
            # thinner than the resolution cannot host a feature above the
            # resolution — whatever optimal region crosses it extends
            # into (and is found via) its full-size neighbours.
            if min(quad.rect.width, quad.rect.height) <= resolution:
                stats.resolution_closed += 1
                # Accepted with its proven lower bound as the score; the
                # resolution_closed counter flags the imprecision.
                self._accept(quad, accepted, found_covers, frontier,
                             stats)
                if sink is not None:
                    sink.append((quad.rect, quad.min_hat, quad.max_hat))
                if self.top_t > 1:
                    max_min = self._top_t_threshold(frontier)
                continue

            if prev_split is not None and quad.same_frontier(prev_split):
                same_frontier_count += 1
            else:
                same_frontier_count = 0

            # Degeneracy handling fires on the paper's trigger (m
            # consecutive same-frontier splits), on depth (interleaved
            # pops starve the global counter when many degenerate spots
            # coexist), and immediately for re-queued refined quadrants.
            split_point = None
            triggered = (quad.refined
                         or same_frontier_count >= self.m_threshold
                         or quad.depth >= self.degeneracy_depth)
            if triggered:
                stats.intersection_checks += 1
                split_point = self._common_point_inside(quad, nlcs,
                                                        resolution)
                if same_frontier_count >= self.m_threshold:
                    same_frontier_count = 0
                if split_point is None:
                    action, requeue = self._refinement_action(
                        quad, nlcs, max_min, tol, resolution,
                        found_covers, stats)
                    if action == "prune":
                        prev_split = quad
                        if sink is not None:
                            sink.append((quad.rect, quad.min_hat,
                                         quad.max_hat))
                        continue
                    if action == "requeue":
                        prev_split = quad
                        heapq.heappush(
                            heap,
                            (-requeue.max_hat, next(counter), requeue))
                        continue

            prev_split = quad
            stats.splits += 1
            if split_point is not None:
                px, py = split_point
                stats.point_splits += 1
                children = quad.rect.split_at(px, py)
            else:
                children = quad.rect.split_center()
            child_rects = _echo_free_children(quad.rect, children)
            # One kernel call classifies the whole child frontier against
            # the shared parent candidates; the bookkeeping runs batched
            # too (max_min is only read at pop time, so raising it before
            # the pushes is equivalent to per-child updates).
            children_q = backend.classify_batch(
                child_rects, quad.intersecting, quad.depth + 1)
            stats.generated += len(children_q)
            if quad.depth + 1 > stats.max_depth:
                stats.max_depth = quad.depth + 1
            if self.top_t == 1:
                for child in children_q:
                    if child.min_hat > max_min:
                        max_min = child.min_hat
                        incumbent = child
            for child in children_q:
                heapq.heappush(heap, (-child.max_hat, next(counter), child))

        if self.top_t == 1:
            final = max_min
        else:
            final = max((q.min_hat for q in accepted), default=0.0)
        # Natural completion: the heap drained, so nothing above MaxMin
        # remains unexplored — the upper bound collapses onto the score.
        self.last_upper_bound = final
        return accepted, final, stats

    # ------------------------------------------------------------------ #

    def _accept(self, quad: Quadrant, accepted: list[Quadrant],
                found_covers: _FoundCovers, frontier: list[float],
                stats: _MutableStats) -> None:
        stats.results += 1
        accepted.append(quad)
        new_cover = found_covers.add(quad.cover_key(), quad.min_hat)
        if self.top_t > 1 and new_cover:
            # Only distinct regions advance the top-t frontier: two
            # quadrants of one region must not consume two frontier slots.
            score = quad.min_hat
            if len(frontier) < self.top_t:
                heapq.heappush(frontier, score)
            elif score > frontier[0]:
                heapq.heapreplace(frontier, score)

    def _top_t_threshold(self, frontier: list[float]) -> float:
        """Theorem 2 threshold in top-t mode: prune only below the t-th
        best consistent score found so far (0 until t regions exist)."""
        if len(frontier) < self.top_t:
            return 0.0
        return frontier[0]

    def _refinement_action(self, quad: Quadrant, nlcs: CircleSet,
                           max_min: float, tol: float, resolution: float,
                           found_covers: _FoundCovers,
                           stats: _MutableStats
                           ) -> tuple[str, Quadrant | None]:
        """Compatibility refinement (see :mod:`repro.core.refine`).

        Returns ``("prune", None)`` when the quadrant is finished — its
        refined upper bound is below the Theorem 2 threshold, or every
        compatible subset that could still tie the optimum extends a
        found cover (its region is already discovered: the mechanism that
        terminates the tessellation of cusps between tangent NLCs).
        Returns ``("requeue", quadrant)`` when the refined bound tightened
        ``m̂ax`` to the MaxMin plateau but the blocking regions are not
        found yet: the re-queued copy sits behind same-priority genuine
        work (FIFO tie-break), so the blocking regions get discovered
        first and the next pop prunes.  ``("split", None)`` otherwise.
        """
        stats.refinement_checks += 1
        refinement = refine_quadrant(
            nlcs, quad.boundary_only, quad.rect,
            base_score=quad.min_hat, value_floor=max_min - tol,
            tol=resolution)
        if refinement is None:
            return ("split", None)
        if refinement.refined_max < max_min - tol:
            stats.pruned_refined += 1
            return ("prune", None)
        if (refinement.complete
                and refinement.refined_max <= max_min + tol
                and refinement.top_cliques):
            containing = quad.containing
            covered = all(
                found_covers.any_superset(containing, clique)
                for clique in refinement.top_cliques)
            if covered:
                stats.pruned_refined += 1
                return ("prune", None)
            if (not quad.refined
                    and refinement.refined_max < quad.max_hat - tol):
                # One re-queue per quadrant: if the blocking regions are
                # still unfound on the second pop (e.g. a pairwise-
                # compatible clique with empty common intersection —
                # Helly failure — whose region never materialises), fall
                # through to a regular split, which shrinks the rectangle
                # and tightens the next refinement.
                requeue = Quadrant(
                    rect=quad.rect, intersecting=quad.intersecting,
                    containing_mask=quad.containing_mask,
                    max_hat=refinement.refined_max,
                    min_hat=quad.min_hat, depth=quad.depth, refined=True)
                return ("requeue", requeue)
            return ("split", None)
        if refinement.refined_max < quad.max_hat - tol:
            # Above the plateau but tighter than m̂ax: re-queue once with
            # the better priority so ordering reflects reality.
            if not quad.refined:
                requeue = Quadrant(
                    rect=quad.rect, intersecting=quad.intersecting,
                    containing_mask=quad.containing_mask,
                    max_hat=refinement.refined_max,
                    min_hat=quad.min_hat, depth=quad.depth, refined=True)
                return ("requeue", requeue)
        return ("split", None)

    def _theorem3_prunes(self, quad: Quadrant,
                         found_covers: _FoundCovers) -> bool:
        return found_covers.prunes(quad, self.theorem3)

    def _common_point_inside(self, quad: Quadrant, nlcs: CircleSet,
                             resolution: float) -> tuple[float, float] | None:
        """The intersection-point detector (Algorithm 1 line 26).

        Returns a point strictly inside the quadrant where every NLC in
        ``Q.I - Q.C`` meets, or ``None``.

        The coincidence tolerance is the larger of the solver's geometric
        ``resolution`` (global-space-derived — a tile shard must detect
        the same coincidences as the full-space run, so the tolerance
        cannot come from the local root rect) and a fraction of the
        quadrant size.  The size-scaled term matters in the degenerate
        regime: a float-smeared coincidence cluster spread over ~1e2 ulps
        fails an absolute 1e-9-of-extent membership test, yet any circle
        crossing a quadrant of width ``w`` passes within ``w`` of every
        interior point — so at the depths where degeneracy triggers fire,
        accepting agreement within ``w/16`` still pins the split to the
        cluster while letting the detector see through the float smear.
        Splitting at an approximate coincidence point is always sound
        (``split_at`` on any interior point preserves exactness); the
        tolerance only decides whether the cheap point split fires or the
        quadrant tessellates to the resolution floor.
        """
        rect = quad.rect
        tol = max(resolution, min(rect.width, rect.height) / 16.0)
        p = self._disks_common_point_arrays(nlcs, quad.boundary_only, tol)
        if p is None:
            return None
        if not (rect.xmin < p.x < rect.xmax and rect.ymin < p.y < rect.ymax):
            return None
        return (p.x, p.y)

    @staticmethod
    def _disks_common_point_arrays(nlcs: CircleSet, boundary: np.ndarray,
                                   tol: float) -> Point | None:
        """A point where the circumferences of all ``boundary`` NLCs meet
        within ``tol``, or ``None`` (always for fewer than two).

        Candidate points come from the first two circumferences; each is
        then tested against every other circle in one vectorised pass
        (boundary sets near the root hold thousands of disks).  Unlike
        interior membership, the point must lie *on* every circle.
        """
        if len(boundary) < 2:
            return None
        candidates = circle_circle_intersection(
            nlcs.circle(int(boundary[0])), nlcs.circle(int(boundary[1])),
            tol)
        if not candidates:
            return None
        rest = boundary[2:]
        cx = nlcs.cx[rest]
        cy = nlcs.cy[rest]
        r = nlcs.r[rest]
        for p in candidates:
            d = np.hypot(cx - p.x, cy - p.y)
            if bool((np.abs(d - r) <= tol).all()):
                return p
        return None


def _echo_free_children(rect: Rect, children: tuple[Rect, ...]) -> list[Rect]:
    """Child rectangles of a split of ``rect``, with echoes resolved.

    ``Rect.split_at`` on a boundary point can return the rectangle
    itself as a child (e.g. splitting at the top-right corner yields
    four distinct children whose lower-left IS the rectangle); pushing
    such an echo would loop the search forever, so echoes recurse
    through the centre split instead.  The scan is skipped only for a
    strictly interior split, certified by BOTH the lower-left and the
    upper-right child being full-dimensional — the lower-left alone is
    not enough (a top-right-corner split leaves it full-dimensional and
    equal to ``rect``).
    """
    first = children[0]
    last = children[-1]
    if (len(children) == 4
            and first.xmax > first.xmin and first.ymax > first.ymin
            and last.xmax > last.xmin and last.ymax > last.ymin):
        return list(children)
    child_rects: list[Rect] = []
    for child_rect in children:
        if child_rect == rect:
            child_rects.extend(rect.split_center())
        else:
            child_rects.append(child_rect)
    return child_rects
