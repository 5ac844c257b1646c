"""The backend that computes a quadrant's ``Q.I`` / ``Q.C`` sets and bounds.

The paper computes ``Q.I`` with a range query on an R-tree over the NLCs
(Section IV-A).  :class:`VectorBackend` answers the same query without an
index: a child quadrant's intersecting set is a subset of its parent's,
so each classification only re-tests the parent's survivors, vectorised
over numpy arrays (hierarchical candidate passing, DESIGN.md §5.1).
"""

from __future__ import annotations

import numpy as np

from repro.core.quadrant import Quadrant
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet


class VectorBackend:
    """Vectorised classification with hierarchical candidate passing.

    Built on the two :class:`CircleSet` kernels: :meth:`classify` wraps
    the scalar ``classify_rect`` and :meth:`classify_batch` the batched
    ``classify_rects`` — one broadcast pass for a whole split frontier,
    which is how ``MaxFirst._phase1`` classifies all children of a split
    in a single kernel call (DESIGN.md §5.1).
    """

    def __init__(self, nlcs: CircleSet, graze_tol: float = 0.0) -> None:
        self.nlcs = nlcs
        self.graze_tol = graze_tol
        # One prepared kernel for the whole search: the packed gather
        # matrix is built once, not per split.
        self._classifier = nlcs.rect_classifier(graze_tol)

    def root_candidates(self) -> np.ndarray:
        """Candidate set for the root quadrant: every NLC."""
        return np.arange(len(self.nlcs), dtype=np.int64)

    def classify(self, rect: Rect, parent_candidates: np.ndarray,
                 depth: int) -> Quadrant:
        """Build the :class:`Quadrant` for ``rect``.

        ``parent_candidates`` must be a superset of the NLCs intersecting
        ``rect`` — the parent quadrant's ``Q.I`` by construction.
        """
        intersecting, containing_mask, max_hat, min_hat = (
            self.nlcs.classify_rect(rect, parent_candidates,
                                    graze_tol=self.graze_tol))
        return Quadrant(rect=rect, intersecting=intersecting,
                        containing_mask=containing_mask,
                        max_hat=max_hat, min_hat=min_hat, depth=depth)

    def classify_batch(self, rects: list[Rect],
                       parent_candidates: np.ndarray,
                       depth: int) -> list[Quadrant]:
        """Classify sibling rectangles against their shared parent
        candidates in one batched kernel call.

        Four siblings forming a 2x2 split grid — the dominant Phase I
        shape, from ``Rect.split_at`` — take the compiled single-pass
        kernel; anything else (echo-extended frontiers, deduped
        degenerate splits, no C compiler) takes the generic numpy
        batch kernel.  Both produce bit-identical quadrants.
        """
        results = None
        if len(rects) == 4:
            r0, r1, r2, r3 = rects
            px = r0.xmax
            py = r0.ymax
            if (r1.xmin == px and r1.ymax == py and r2.xmax == px
                    and r2.ymin == py and r3.xmin == px and r3.ymin == py
                    and r1.ymin == r0.ymin and r2.xmin == r0.xmin
                    and r3.xmax == r1.xmax and r3.ymax == r2.ymax):
                results = self._classifier.quad_split(
                    r0.xmin, r0.ymin, r1.xmax, r2.ymax, px, py,
                    parent_candidates)
        if results is None:
            results = self._classifier.classify(rects, parent_candidates)
        return [Quadrant(rect=rect, intersecting=intersecting,
                         containing_mask=containing_mask,
                         max_hat=max_hat, min_hat=min_hat, depth=depth)
                for rect, (intersecting, containing_mask, max_hat, min_hat)
                in zip(rects, results)]
