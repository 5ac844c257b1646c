"""Structure-of-arrays store of scored disks with vectorised predicates.

MaxFirst's inner loop classifies every NLC against a quadrant: does the
disk intersect the quadrant (``Q.I``), and does it contain the quadrant
(``Q.C``)?  The paper answers this with an R-tree range query per quadrant;
in pure Python that is dominated by per-object overhead.  ``CircleSet``
stores all NLCs as parallel numpy arrays and classifies an entire candidate
set against a rectangle in a handful of array operations.

Combined with *hierarchical candidate passing* — a child quadrant's
intersecting set is always a subset of its parent's, so each quadrant only
re-tests its parent's survivors — this is what makes a pure-Python
MaxFirst run at interactive speed (see DESIGN.md §5.1).
"""

from __future__ import annotations

import ctypes
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.index._ckernel import QuadSplitArgs, load_quad_kernel
from repro.obs import metrics as _obs_metrics

#: Deterministic work counters over the batched classification kernel.
#: Counted at call granularity — one batch per classify/quad_split
#: invocation, rect count per batch — so the compiled fast path and the
#: REPRO_NO_CKERNEL numpy fallback report identical values (a quad split
#: is one batch of four rects on either path).
_KERNEL_BATCHES = _obs_metrics.counter("kernel_batches")
_KERNEL_RECTS = _obs_metrics.counter("kernel_rects")
#: High-water mark of the compiled kernel's reusable scratch rows.
_SCRATCH_BYTES = _obs_metrics.gauge("numpy_scratch_bytes_peak")

# Broadcast chunking cap: float64 intermediates stay under ~16 MB.
_BROADCAST_ELEMENTS = 2_000_000

# Shared empty containing-mask for rectangles no candidate reaches.
_EMPTY_MASK = np.zeros(0, dtype=bool)

# A zero-length int64 ctypes array type: ``from_buffer`` over a candidate
# array passes its address to the compiled kernel more cheaply than
# ``ndarray.ctypes``, and refuses a read-only or non-contiguous array.
_INDEX_VIEW = ctypes.c_int64 * 0


def _rects_as_array(rects) -> np.ndarray:
    """``(n, 4)`` float64 view of a rect batch (ndarray or Rect sequence)."""
    if isinstance(rects, np.ndarray):
        arr = np.ascontiguousarray(rects, dtype=np.float64)
    else:
        arr = np.array([(rc.xmin, rc.ymin, rc.xmax, rc.ymax)
                        for rc in rects], dtype=np.float64)
        if arr.size == 0:
            return arr.reshape(0, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(
            f"rects must be (n, 4) (xmin, ymin, xmax, ymax) rows, "
            f"got shape {arr.shape}")
    return arr


class CircleSet:
    """Immutable batch of scored disks.

    Attributes
    ----------
    cx, cy, r:
        ``float64`` arrays of centres and radii.
    scores:
        Per-disk scores (Definition 2 of the paper:
        ``w(o) * (prob_i - prob_{i+1})``).
    owners:
        Index of the customer object owning each disk (-1 when unknown).
    levels:
        1-based NLC level ``i`` of each disk (0 when unknown).
    """

    __slots__ = ("cx", "cy", "r", "scores", "owners", "levels", "_bbox",
                 "_classifiers")

    def __init__(self, cx: np.ndarray, cy: np.ndarray, r: np.ndarray,
                 scores: np.ndarray, owners: np.ndarray | None = None,
                 levels: np.ndarray | None = None) -> None:
        self.cx = np.ascontiguousarray(cx, dtype=np.float64)
        self.cy = np.ascontiguousarray(cy, dtype=np.float64)
        self.r = np.ascontiguousarray(r, dtype=np.float64)
        self.scores = np.ascontiguousarray(scores, dtype=np.float64)
        n = self.cx.shape[0]
        if not (self.cy.shape[0] == self.r.shape[0]
                == self.scores.shape[0] == n):
            raise ValueError("CircleSet arrays must have equal length")
        if n and float(self.r.min()) < 0:
            raise ValueError("negative radius in CircleSet")
        if owners is None:
            owners = np.full(n, -1, dtype=np.int64)
        if levels is None:
            levels = np.zeros(n, dtype=np.int64)
        self.owners = np.ascontiguousarray(owners, dtype=np.int64)
        self.levels = np.ascontiguousarray(levels, dtype=np.int64)
        self._bbox: Rect | None = None
        self._classifiers: dict[float, RectClassifier] = {}

    @classmethod
    def from_circles(cls, circles: Iterable[Circle],
                     scores: Sequence[float] | None = None) -> "CircleSet":
        """Build from :class:`~repro.geometry.circle.Circle` objects."""
        circles = list(circles)
        cx = np.array([c.cx for c in circles], dtype=np.float64)
        cy = np.array([c.cy for c in circles], dtype=np.float64)
        r = np.array([c.r for c in circles], dtype=np.float64)
        if scores is None:
            sc = np.ones(len(circles), dtype=np.float64)
        else:
            sc = np.asarray(scores, dtype=np.float64)
        return cls(cx, cy, r, sc)

    def __len__(self) -> int:
        return int(self.cx.shape[0])

    def circle(self, index: int) -> Circle:
        """The ``index``-th disk as a scalar :class:`Circle`."""
        return Circle(float(self.cx[index]), float(self.cy[index]),
                      float(self.r[index]))

    def circles(self, indices: Iterable[int]) -> list[Circle]:
        """Scalar circles for a batch of indices."""
        return [self.circle(int(i)) for i in indices]

    def signed_boundary_distances(
            self, x: float, y: float,
            candidates: np.ndarray | None = None) -> np.ndarray:
        """SoA batch of ``Circle.signed_boundary_distance``: distance from
        ``(x, y)`` to each circumference, positive inside the disk.

        ``candidates`` optionally restricts (and orders) the result to a
        subset of indices — Phase II seeds its clip ordering with one
        call over a quadrant's cover instead of one scalar call per
        covering circle.
        """
        if candidates is None:
            cx, cy, r = self.cx, self.cy, self.r
        else:
            cx = self.cx[candidates]
            cy = self.cy[candidates]
            r = self.r[candidates]
        return r - np.hypot(x - cx, y - cy)

    def bounding_box(self) -> Rect:
        """Tight bounding box of all disks (cached)."""
        if self._bbox is None:
            if len(self) == 0:
                raise ValueError("bounding_box of empty CircleSet")
            self._bbox = Rect(
                float((self.cx - self.r).min()),
                float((self.cy - self.r).min()),
                float((self.cx + self.r).max()),
                float((self.cy + self.r).max()),
            )
        return self._bbox

    # ------------------------------------------------------------------ #
    # Rectangle classification (the Theorem 1 predicates)
    # ------------------------------------------------------------------ #

    def intersects_rect_mask(self, rect: Rect,
                             candidates: np.ndarray | None = None
                             ) -> np.ndarray:
        """Boolean mask: which candidate disks' *interiors* intersect the
        rectangle?  ``candidates=None`` tests every disk.

        The strict inequality implements region semantics (see
        DESIGN.md §5): a disk that merely grazes a quadrant at a boundary
        point cannot contribute score to any full-dimensional region inside
        the quadrant, so it does not belong to ``Q.I``.  This is also what
        makes MaxFirst terminate at the points where many NLCs meet (every
        customer's ``k``-th NLC passes exactly through its ``k``-th nearest
        site).
        """
        cx, cy, r = self._gather(candidates)
        dx = np.maximum(rect.xmin - cx, 0.0)
        np.maximum(dx, cx - rect.xmax, out=dx)
        dy = np.maximum(rect.ymin - cy, 0.0)
        np.maximum(dy, cy - rect.ymax, out=dy)
        return dx * dx + dy * dy < r * r

    def contains_rect_mask(self, rect: Rect,
                           candidates: np.ndarray | None = None
                           ) -> np.ndarray:
        """Boolean mask: which candidate disks contain the whole
        rectangle?"""
        cx, cy, r = self._gather(candidates)
        dx = np.maximum(cx - rect.xmin, rect.xmax - cx)
        dy = np.maximum(cy - rect.ymin, rect.ymax - cy)
        return dx * dx + dy * dy <= r * r

    def classify_rect(self, rect: Rect,
                      candidates: np.ndarray | None = None,
                      graze_tol: float = 0.0
                      ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """One-pass computation of a quadrant's Theorem 1 data.

        Returns ``(intersecting, containing_mask, max_hat, min_hat)`` where
        ``intersecting`` is the index array of disks in ``Q.I``,
        ``containing_mask`` flags which of those are also in ``Q.C``,
        ``max_hat = sum(score, Q.I)`` and ``min_hat = sum(score, Q.C)``.

        ``graze_tol`` is the geometric resolution: a disk must overlap the
        rectangle by more than ``graze_tol`` to join ``Q.I``, and may fall
        short of containing it by up to ``graze_tol`` and still join
        ``Q.C``.  The NLC construction produces exact circle/site
        incidences that float rounding smears by an ulp either way; the
        tolerance classifies those cleanly instead of splitting down to
        machine epsilon around them.  Features thinner than ``graze_tol``
        (default 0: exact predicates) are below the solver's resolution by
        definition.
        """
        if candidates is None:
            candidates = np.arange(len(self), dtype=np.int64)
        cx = self.cx[candidates]
        cy = self.cy[candidates]
        r = self.r[candidates]

        near_dx = np.maximum(rect.xmin - cx, 0.0)
        np.maximum(near_dx, cx - rect.xmax, out=near_dx)
        near_dy = np.maximum(rect.ymin - cy, 0.0)
        np.maximum(near_dy, cy - rect.ymax, out=near_dy)
        # Strict: open-disk intersection (region semantics; see
        # intersects_rect_mask), shrunk by the graze tolerance.
        r_in = np.maximum(r - graze_tol, 0.0)
        inter_mask = near_dx * near_dx + near_dy * near_dy < r_in * r_in

        intersecting = candidates[inter_mask]
        if intersecting.shape[0] == 0:
            empty = np.zeros(0, dtype=bool)
            return intersecting, empty, 0.0, 0.0

        icx = cx[inter_mask]
        icy = cy[inter_mask]
        ir_out = r[inter_mask] + graze_tol
        far_dx = np.maximum(icx - rect.xmin, rect.xmax - icx)
        far_dy = np.maximum(icy - rect.ymin, rect.ymax - icy)
        containing_mask = far_dx * far_dx + far_dy * far_dy <= ir_out * ir_out

        sc = self.scores[intersecting]
        max_hat = float(sc.sum())
        min_hat = float(sc[containing_mask].sum())
        return intersecting, containing_mask, max_hat, min_hat

    def classify_rects(self, rects, candidates: np.ndarray | None = None,
                       graze_tol: float = 0.0
                       ) -> list[tuple[np.ndarray, np.ndarray, float, float]]:
        """Batched :meth:`classify_rect`: N rectangles, one candidate set.

        ``rects`` is an ``(n, 4)`` float array of ``(xmin, ymin, xmax,
        ymax)`` rows, or any sequence of :class:`Rect`.  Returns one
        ``(intersecting, containing_mask, max_hat, min_hat)`` tuple per
        rectangle, element-wise identical to calling
        :meth:`classify_rect` in a loop (asserted by a property test).

        The point is amortisation: the candidate gather and the
        near/far distance arithmetic run once for the whole batch
        instead of once per rectangle, which is what makes classifying
        MaxFirst's whole split frontier (all four children of a split)
        cost barely more than classifying one child.  The broadcast is
        chunked over rectangles so no intermediate array exceeds
        ~16 MB, whatever the batch size.
        """
        if candidates is None:
            candidates = np.arange(len(self), dtype=np.int64)
        return self.rect_classifier(graze_tol).classify(rects, candidates)

    def rects_intersecting(self, rects) -> list[np.ndarray]:
        """Per-rectangle index arrays of disks whose interior meets it.

        The batch form of :meth:`intersects_rect_mask` (open-disk
        semantics, no graze shrink): one ``(n_rects, n_disks)`` broadcast,
        chunked to the usual ~16 MB cap, returning a sorted ``int64``
        index array per rectangle.  This is the engine layer's tile-halo
        predicate: the open-disk set is a superset of every graze-shrunk
        classification a shard will run inside the tile, so seeding a
        shard with these candidates preserves the single-process ``Q.I``
        sets exactly.  The tile engine's planner runs this arithmetic on
        just the disk/tile pairs whose bounding boxes meet
        (``repro.engine.outofcore._halo_pairs``) and keeps the halos in
        its plan; this all-pairs form is that pass's test reference.
        """
        arr = _rects_as_array(rects)
        n_rects = arr.shape[0]
        out: list[np.ndarray] = []
        if n_rects == 0:
            return out
        cx, cy, r = self.cx, self.cy, self.r
        r2 = r * r
        n = cx.shape[0]
        if n == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(n_rects)]
        rows = max(1, _BROADCAST_ELEMENTS // (2 * n))
        for start in range(0, n_rects, rows):
            stop = min(start + rows, n_rects)
            chunk = arr[start:stop]
            dx = np.maximum(chunk[:, 0:1] - cx, 0.0)
            np.maximum(dx, cx - chunk[:, 2:3], out=dx)
            dy = np.maximum(chunk[:, 1:2] - cy, 0.0)
            np.maximum(dy, cy - chunk[:, 3:4], out=dy)
            hit = dx * dx + dy * dy < r2
            for row in range(stop - start):
                out.append(np.flatnonzero(hit[row]).astype(np.int64))
        return out

    def rect_classifier(self, graze_tol: float = 0.0) -> "RectClassifier":
        """A prepared :class:`RectClassifier` for ``graze_tol`` (cached).

        Hot callers (the vector backend classifies every split frontier
        through one of these) should hold the instance rather than going
        through :meth:`classify_rects`, which re-resolves the cache per
        call.
        """
        clf = self._classifiers.get(graze_tol)
        if clf is None:
            clf = RectClassifier(self, graze_tol)
            self._classifiers[graze_tol] = clf
        return clf

    # ------------------------------------------------------------------ #
    # Point coverage
    # ------------------------------------------------------------------ #

    def contains_point_mask(self, x: float, y: float,
                            candidates: np.ndarray | None = None,
                            tol: float = 0.0) -> np.ndarray:
        """Boolean mask: which candidate disks contain ``(x, y)``
        (closed, with ``tol`` slack on the boundary)?"""
        cx, cy, r = self._gather(candidates)
        dx = cx - x
        dy = cy - y
        rr = r + tol
        return dx * dx + dy * dy <= rr * rr

    def cover_score_at(self, x: float, y: float,
                       candidates: np.ndarray | None = None,
                       tol: float = 0.0) -> float:
        """Total score of the disks containing ``(x, y)`` — the paper's
        ``total_score`` (Definition 4) evaluated exactly."""
        mask = self.contains_point_mask(x, y, candidates, tol)
        if candidates is None:
            return float(self.scores[mask].sum())
        return float(self.scores[candidates[mask]].sum())

    def cover_scores_at_points(self, points: np.ndarray,
                               candidates: np.ndarray,
                               tol: float = 0.0) -> np.ndarray:
        """Total scores at a batch of points against one candidate set.

        ``points`` is ``(n, 2)``; the result is ``(n,)``.  Cost is
        ``O(n * len(candidates))`` — callers bucket points so the candidate
        sets stay small (see MaxOverlap's coverage counting).  The
        broadcast is chunked over points so peak memory stays ~16 MB per
        intermediate regardless of ``n`` (MaxOverlap feeds millions of
        intersection points against dense buckets).
        """
        pts = np.asarray(points, dtype=np.float64)
        cx = self.cx[candidates]
        cy = self.cy[candidates]
        rr = self.r[candidates] + tol
        rr2 = rr * rr
        sc = self.scores[candidates]
        n_pts = pts.shape[0]
        out = np.zeros(n_pts, dtype=np.float64)
        if n_pts == 0 or cx.shape[0] == 0:
            return out
        rows = max(1, _BROADCAST_ELEMENTS // cx.shape[0])
        for start in range(0, n_pts, rows):
            stop = start + rows
            dx = pts[start:stop, 0:1] - cx
            dy = pts[start:stop, 1:2] - cy
            inside = dx * dx + dy * dy <= rr2
            out[start:stop] = inside @ sc
        return out

    def _gather(self, candidates: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if candidates is None:
            return self.cx, self.cy, self.r
        return (self.cx[candidates], self.cy[candidates],
                self.r[candidates])


class RectClassifier:
    """Prepared batched rectangle classifier for one graze tolerance.

    Everything that depends only on the disk set and the tolerance is
    hoisted out of the per-call path: centres, graze-adjusted *squared*
    radii and scores live in one packed ``(5, n)`` matrix, so a call
    pays a single fancy-index gather for its candidate columns instead
    of five, then pure broadcast arithmetic.  Results are element-wise
    identical to :meth:`CircleSet.classify_rect` — the squared-radius
    precomputation performs the same per-element ``maximum``/multiply
    the scalar kernel does, and the per-rect sums reduce the same
    compacted score arrays in the same order (in numpy, or in the
    compiled kernel's port of numpy's pairwise summation).
    """

    __slots__ = ("_packed", "_quad_fn", "_stride", "_scratch", "_rows",
                 "_args")

    def __init__(self, circles: CircleSet, graze_tol: float) -> None:
        r_in = np.maximum(circles.r - graze_tol, 0.0)
        r_out = circles.r + graze_tol
        self._packed = np.stack(
            (circles.cx, circles.cy, r_in * r_in, r_out * r_out,
             circles.scores))
        self._quad_fn = load_quad_kernel()
        self._stride = 0
        self._scratch: tuple[np.ndarray, ...] = ()
        self._rows: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
        self._args: QuadSplitArgs | None = None

    def _grow_scratch(self, n: int) -> None:
        """(Re)allocate the compiled kernel's per-child output rows and
        bind them, with the disk columns, into its argument struct."""
        self._stride = n
        idx = np.empty((4, n), dtype=np.int64)
        mask = np.empty((4, n), dtype=np.bool_)
        sc = np.empty((4, n), dtype=np.float64)
        csc = np.empty((4, n), dtype=np.float64)
        counts = np.empty(4, dtype=np.int64)
        sums = np.empty((4, 2), dtype=np.float64)
        # The struct holds raw pointers: _scratch keeps their arrays alive.
        self._scratch = (idx, mask, sc, csc, counts, sums)
        _SCRATCH_BYTES.observe_max(float(sum(
            a.nbytes for a in self._scratch)))
        self._rows = tuple(zip(idx, mask))
        packed = self._packed
        self._args = QuadSplitArgs(
            *(a.ctypes.data for a in (
                packed[0], packed[1], packed[2], packed[3], packed[4],
                idx, mask, sc, csc, counts, sums)), n)

    def quad_split(self, xmin: float, ymin: float, xmax: float, ymax: float,
                   px: float, py: float, candidates: np.ndarray
                   ) -> list[tuple[np.ndarray, np.ndarray, float, float]] | None:
        """Classify the four children of splitting a rect at ``(px, py)``.

        Single-pass compiled fast path for the dominant Phase I split
        shape (see ``_quadkernel.c``): one foreign call classifies the
        candidates and sums each child's scores.  Returns the same four
        result tuples :meth:`classify` would, in ``Rect.split_at`` child
        order, or ``None`` when the compiled kernel is unavailable or
        cannot read ``candidates`` (the caller falls back to the numpy
        batch kernel).
        """
        fn = self._quad_fn
        if fn is None or candidates.dtype != np.int64:
            # Counted by classify() instead: the caller retries there, so
            # both kernel paths see one batch of four rects per split.
            return None
        try:
            cand = _INDEX_VIEW.from_buffer(candidates)
        except TypeError:  # read-only or non-contiguous: numpy takes it
            return None
        _KERNEL_BATCHES.add()
        _KERNEL_RECTS.add(4)
        n = candidates.shape[0]
        if n == 0:
            return [(candidates[:0], _EMPTY_MASK, 0.0, 0.0)] * 4
        if n > self._stride:
            self._grow_scratch(n)
        fn(self._args, cand, n, xmin, ymin, xmax, ymax, px, py)
        counts, sums = self._scratch[4:]
        out: list[tuple[np.ndarray, np.ndarray, float, float]] = []
        for (idx_row, mask_row), h, (max_hat, min_hat) in zip(
                self._rows, counts.tolist(), sums.tolist()):
            if h == 0:
                out.append((candidates[:0], _EMPTY_MASK, 0.0, 0.0))
                continue
            # Each child owns copies of its runs: the next split reuses
            # the scratch rows.
            out.append((idx_row[:h].copy(), mask_row[:h].copy(),
                        max_hat, min_hat))
        return out

    def classify(self, rects, candidates: np.ndarray
                 ) -> list[tuple[np.ndarray, np.ndarray, float, float]]:
        """Classify a rect batch against one candidate index array.

        See :meth:`CircleSet.classify_rects` for the contract; this is
        its engine.  The x and y axes are processed as one stacked
        ``(rows, 2, n)`` broadcast and the per-rect results are carved
        out of flat concatenated gathers, so the call count stays
        constant in the batch size — per-element arithmetic is still
        the scalar kernel's, in the scalar kernel's grouping (``max``
        is associative exactly, and ``max(c-lo, hi-c)²`` equals
        ``min(lo-c, c-hi)²``), so results stay bit-identical.
        """
        arr = _rects_as_array(rects)
        n_rects = arr.shape[0]
        _KERNEL_BATCHES.add()
        _KERNEL_RECTS.add(n_rects)
        out: list[tuple[np.ndarray, np.ndarray, float, float]] = []
        if n_rects == 0:
            return out
        sub = self._packed[:, candidates]
        centers = sub[0:2]
        r_in2 = sub[2]
        r_out2 = sub[3]
        sc = sub[4]
        n_cand = centers.shape[1]
        if n_cand == 0:
            return [(candidates[:0], _EMPTY_MASK, 0.0, 0.0)
                    for _ in range(n_rects)]

        add_reduce = np.add.reduce
        rows = max(1, _BROADCAST_ELEMENTS // (2 * n_cand))
        for start in range(0, n_rects, rows):
            stop = min(start + rows, n_rects)
            chunk = arr[start:stop]
            # a = lo - c and b = c - hi per axis; the near (clamped) and
            # far corner distances are max(a, b, 0) and -min(a, b), and
            # the sign drops when squaring.
            a = chunk[:, 0:2, None] - centers
            b = centers - chunk[:, 2:4, None]
            near = np.maximum(a, b)
            np.maximum(near, 0.0, out=near)
            far = np.minimum(a, b, out=a)
            near *= near
            far *= far
            inter = near[:, 0, :] + near[:, 1, :] < r_in2
            contain = far[:, 0, :] + far[:, 1, :] <= r_out2
            # Flat extraction: one nonzero pass and one boolean gather
            # yield all rects' compacted index/score/mask runs back to
            # back, split by the per-rect hit counts (row-major order
            # keeps each run in the scalar kernel's element order, so
            # the sums reduce the same sequences).  Everything after
            # the two full-matrix passes touches only the hits.
            n_rows = stop - start
            hit_rows, cols = inter.nonzero()
            counts = np.bincount(hit_rows, minlength=n_rows).tolist()
            all_inter = candidates[cols]
            all_sc = sc[cols]
            all_mask = contain[inter]
            all_csc = all_sc[all_mask]
            ccounts = np.bincount(hit_rows[all_mask],
                                  minlength=n_rows).tolist()
            o = 0
            co = 0
            for c, cc in zip(counts, ccounts):
                if c == 0:
                    out.append((candidates[:0], _EMPTY_MASK, 0.0, 0.0))
                    continue
                nxt = o + c
                cnxt = co + cc
                out.append((all_inter[o:nxt], all_mask[o:nxt],
                            float(add_reduce(all_sc[o:nxt])),
                            float(add_reduce(all_csc[co:cnxt]))))
                o = nxt
                co = cnxt
        return out
