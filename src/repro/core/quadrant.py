"""Quadrants: the units of MaxFirst's space partitioning.

A quadrant pairs a rectangle with its Theorem 1 data: the NLCs that
intersect it (``Q.I``), the subset that contain it (``Q.C``), and the score
bounds ``m̂ax = sum(score, Q.I)`` and ``m̂in = sum(score, Q.C)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.geometry.rect import Rect


@dataclass(slots=True)
class Quadrant:
    """A quadrant and its score bounds.

    ``intersecting`` is a sorted index array into the solver's
    :class:`~repro.index.circleset.CircleSet`; ``containing_mask`` flags,
    per entry of ``intersecting``, membership in ``Q.C``.
    """

    rect: Rect
    intersecting: np.ndarray
    containing_mask: np.ndarray
    max_hat: float
    min_hat: float
    depth: int = 0
    # True once the compatibility refinement has tightened max_hat; such
    # quadrants re-enter degeneracy handling directly on their next pop.
    refined: bool = False
    # Lazily-computed cover identity (see cover_key); cached so the
    # Theorem 3 bookkeeping and region dedup never rebuild it per pop.
    _cover_key: tuple[int, ...] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.min_hat > self.max_hat + 1e-9:
            raise ValueError(
                f"Theorem 1 violated: min_hat={self.min_hat} > "
                f"max_hat={self.max_hat}")

    @property
    def containing(self) -> np.ndarray:
        """Indices of the NLCs in ``Q.C``."""
        return self.intersecting[self.containing_mask]

    @property
    def boundary_only(self) -> np.ndarray:
        """Indices of the NLCs in ``Q.I - Q.C`` — the disks whose boundary
        crosses the quadrant.  These drive the intersection-point problem
        check."""
        return self.intersecting[~self.containing_mask]

    @property
    def is_consistent(self) -> bool:
        """True when every location in the quadrant provably has the same
        score (``m̂ax == m̂in``, i.e. ``Q.I == Q.C``)."""
        return bool(self.containing_mask.all()) if len(
            self.containing_mask) else True

    def same_frontier(self, other: "Quadrant", tol: float = 0.0) -> bool:
        """True when both quadrants intersect the same NLCs with the same
        ``m̂in`` — the repeated-split signature that triggers the
        intersection-point check (Algorithm 1, lines 19-20)."""
        if abs(self.min_hat - other.min_hat) > tol:
            return False
        return np.array_equal(self.intersecting, other.intersecting)

    def cover_key(self) -> tuple[int, ...]:
        """Hashable identity of ``Q.C``: the sorted cover indices (used to
        deduplicate optimal regions and for Theorem 3 bookkeeping).
        ``intersecting`` is sorted by construction, so the tuple is too.
        Computed once and cached — repeat calls are free."""
        key = self._cover_key
        if key is None:
            key = tuple(int(i) for i in self.containing)
            self._cover_key = key
        return key


@dataclass(frozen=True)
class MaxFirstStats:
    """Counters behind Figure 13 of the paper.

    * ``generated`` — quadrants created ("total" in Fig. 13);
    * ``splits`` — quadrants partitioned further;
    * ``pruned_theorem2`` — pruned because ``m̂ax < MaxMin`` ("pruned1");
    * ``pruned_theorem3`` — pruned because a found region already covers
      them ("pruned2");
    * ``results`` — consistent maximum-score quadrants returned by Phase I;
    * ``point_splits`` — splits performed at a common intersection point;
    * ``intersection_checks`` — times the common-point detector ran;
    * ``refinement_checks`` — compatibility-refinement passes run;
    * ``pruned_refined`` — quadrants pruned by the refined bound or the
      generalized found-cover test (tangency cusps);
    * ``resolution_closed`` — quadrants that reached the floating-point
      resolution floor still inconsistent (``m̂ax > m̂in``) and were
      accepted with ``m̂in``, their proven lower bound.  Non-zero where
      NLC boundaries meet closer than the resolution: the golden
      searches record 27 on ``uniform-k1`` and 11 on ``random-3``;
    * ``max_depth`` — deepest quadrant examined.
    """

    generated: int = 0
    splits: int = 0
    pruned_theorem2: int = 0
    pruned_theorem3: int = 0
    results: int = 0
    point_splits: int = 0
    intersection_checks: int = 0
    refinement_checks: int = 0
    pruned_refined: int = 0
    resolution_closed: int = 0
    max_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "generated": self.generated,
            "splits": self.splits,
            "pruned_theorem2": self.pruned_theorem2,
            "pruned_theorem3": self.pruned_theorem3,
            "results": self.results,
            "point_splits": self.point_splits,
            "intersection_checks": self.intersection_checks,
            "refinement_checks": self.refinement_checks,
            "pruned_refined": self.pruned_refined,
            "resolution_closed": self.resolution_closed,
            "max_depth": self.max_depth,
        }


#: The stable MaxFirst counter-key set, in :meth:`MaxFirstStats.as_dict`
#: order.  The engine pipelines zero-fill these keys so every RunReport
#: (including degenerate no-NLC solves) carries the full schema; the
#: counter-schema test and the perf gate rely on it.
MAXFIRST_COUNTER_KEYS: tuple[str, ...] = tuple(
    f.name for f in fields(MaxFirstStats))


@dataclass
class _MutableStats:
    """Accumulator the solver mutates; frozen into MaxFirstStats at the
    end so results are immutable."""

    generated: int = 0
    splits: int = 0
    pruned_theorem2: int = 0
    pruned_theorem3: int = 0
    results: int = 0
    point_splits: int = 0
    intersection_checks: int = 0
    refinement_checks: int = 0
    pruned_refined: int = 0
    resolution_closed: int = 0
    max_depth: int = 0

    def freeze(self) -> MaxFirstStats:
        return MaxFirstStats(
            generated=self.generated,
            splits=self.splits,
            pruned_theorem2=self.pruned_theorem2,
            pruned_theorem3=self.pruned_theorem3,
            results=self.results,
            point_splits=self.point_splits,
            intersection_checks=self.intersection_checks,
            refinement_checks=self.refinement_checks,
            pruned_refined=self.pruned_refined,
            resolution_closed=self.resolution_closed,
            max_depth=self.max_depth,
        )
