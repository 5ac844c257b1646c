"""Robust construction of the intersection of a set of closed disks.

The construction derives, for every circle, the angular portion of its
circumference that lies inside all other disks (an intersection of angular
intervals).  The surviving portions are exactly the boundary arcs of the
disk-intersection region.  This direct O(n^2) derivation is preferred over
incremental boundary clipping: ``n`` here is the handful of NLCs covering a
maximum-score quadrant, and the interval arithmetic has no cascading
floating-point cases.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.geometry.arcs import TWO_PI, AngularIntervals, Arc, ArcRegion
from repro.geometry.circle import Circle, circle_circle_intersection
from repro.geometry.point import Point


class DisjointDisksError(ValueError):
    """Raised when the disks have empty common intersection.

    The MaxFirst pipeline never triggers this on its own output (a
    maximum-score quadrant is covered by all its ``Q.C`` disks), but the
    public geometry API validates its input.
    """


def intersect_disks(circles: Iterable[Circle], tol: float = 1e-9) -> ArcRegion:
    """Intersection of closed disks as an :class:`ArcRegion`.

    Handles all the degeneracies the MaxBRkNN instances produce:

    * a single disk (region is the full disk);
    * one disk containing the whole intersection (that disk contributes the
      only arcs);
    * disks meeting in exactly one point — the *intersection point problem*
      of Section IV-A — yielding a degenerate point region;
    * duplicate disks (customers at identical locations).

    Raises :class:`DisjointDisksError` when the intersection is empty.
    """
    unique = _dedupe(circles, tol)
    if not unique:
        raise ValueError("intersect_disks: no circles given")
    if len(unique) == 1:
        only = unique[0]
        return ArcRegion(circles=(only,), arcs=(Arc(only, 0.0, TWO_PI),))

    arcs: list[Arc] = []
    for i, ci in enumerate(unique):
        intervals = AngularIntervals()
        alive = True
        for j, cj in enumerate(unique):
            if i == j:
                continue
            constraint = _arc_inside(ci, cj, tol)
            if constraint is None:  # cj's disk covers circle i: no constraint
                continue
            center, half_width = constraint
            if half_width <= 0.0:
                alive = False  # circle i lies wholly outside disk j
                break
            intervals.intersect_with(center, half_width)
            if intervals.is_empty:
                alive = False
                break
        if not alive:
            continue
        if intervals.is_full:
            arcs.append(Arc(ci, 0.0, TWO_PI))
        else:
            for start, end in intervals.intervals():
                sweep = end - start
                if sweep > tol:
                    arcs.append(Arc(ci, start, sweep))

    if arcs:
        return ArcRegion(circles=tuple(unique), arcs=tuple(arcs), _tol=tol)

    # No boundary arcs survive: the region is a single point or empty.
    point = _common_point(unique, tol)
    if point is not None:
        return ArcRegion(circles=tuple(unique), arcs=(),
                         degenerate_point=point, _tol=tol)
    raise DisjointDisksError("the disks have no common point")


class IncrementalDiskIntersection:
    """Incrementally maintained intersection of closed disks.

    Phase II of MaxFirst grows its region one disk at a time;
    re-running :func:`intersect_disks` from scratch after every
    addition repeats all earlier constraint work.  This class keeps the
    per-circle :class:`AngularIntervals` state alive between additions,
    so each :meth:`add` costs one constraint exchange per live circle
    instead of a full O(n²) rebuild.

    **Bit-identity.**  :meth:`region` returns float-for-float the
    :class:`ArcRegion` that ``intersect_disks(added_circles, tol=tol)``
    returns.  The from-scratch pass applies, to each circle *i*, the
    angular constraints of the other circles in list order; adding disks
    one at a time replays exactly that sequence — the new disk appends
    one ``intersect_with`` call to every predecessor's interval set, and
    the new circle's own intervals are built against the predecessors in
    list order — so circle *i* sees constraints ``0, …, i-1, i+1, …, n``
    in both constructions, and every interval endpoint (hence every arc)
    comes out identical.  Dead circles stay dead: constraints only
    shrink interval sets, which mirrors the from-scratch early ``break``
    (the property test in ``tests/geometry`` checks the equivalence
    prefix-by-prefix, degeneracies included).
    """

    __slots__ = ("_tol", "_circles", "_intervals", "_alive")

    def __init__(self, tol: float = 1e-9) -> None:
        self._tol = tol
        self._circles: list[Circle] = []
        self._intervals: list[AngularIntervals] = []
        self._alive: list[bool] = []

    def __len__(self) -> int:
        return len(self._circles)

    @property
    def circles(self) -> tuple[Circle, ...]:
        """The deduplicated circles added so far, in insertion order."""
        return tuple(self._circles)

    def add(self, circle: Circle) -> bool:
        """Clip the running intersection against one more disk.

        Returns ``False`` (a no-op) when the disk duplicates one already
        added — the same ``tol``-box test :func:`intersect_disks` uses
        in its dedup pass — and ``True`` otherwise.
        """
        tol = self._tol
        for o in self._circles:
            if (abs(circle.cx - o.cx) <= tol
                    and abs(circle.cy - o.cy) <= tol
                    and abs(circle.r - o.r) <= tol):
                return False
        new_intervals = AngularIntervals()
        new_alive = True
        for j, cj in enumerate(self._circles):
            if self._alive[j]:
                # The new disk constrains live predecessor j.
                constraint = _arc_inside(cj, circle, tol)
                if constraint is not None:
                    center, half_width = constraint
                    if half_width <= 0.0:
                        self._alive[j] = False
                    else:
                        intervals = self._intervals[j]
                        intervals.intersect_with(center, half_width)
                        if intervals.is_empty:
                            self._alive[j] = False
            if new_alive:
                # Predecessor j constrains the new circle (list order,
                # with the from-scratch early-stop once dead).
                constraint = _arc_inside(circle, cj, tol)
                if constraint is not None:
                    center, half_width = constraint
                    if half_width <= 0.0:
                        new_alive = False
                    else:
                        new_intervals.intersect_with(center, half_width)
                        if new_intervals.is_empty:
                            new_alive = False
        self._circles.append(circle)
        self._intervals.append(new_intervals)
        self._alive.append(new_alive)
        return True

    def region(self) -> ArcRegion:
        """The current intersection as an :class:`ArcRegion`.

        Identical (bit-for-bit) to ``intersect_disks`` over the added
        circles; raises :class:`DisjointDisksError` /
        :class:`ValueError` in the same cases.
        """
        unique = self._circles
        if not unique:
            raise ValueError("intersect_disks: no circles given")
        if len(unique) == 1:
            only = unique[0]
            return ArcRegion(circles=(only,),
                             arcs=(Arc(only, 0.0, TWO_PI),))
        tol = self._tol
        arcs: list[Arc] = []
        for ci, alive, intervals in zip(unique, self._alive,
                                        self._intervals):
            if not alive:
                continue
            if intervals.is_full:
                arcs.append(Arc(ci, 0.0, TWO_PI))
            else:
                for start, end in intervals.intervals():
                    sweep = end - start
                    if sweep > tol:
                        arcs.append(Arc(ci, start, sweep))
        if arcs:
            return ArcRegion(circles=tuple(unique), arcs=tuple(arcs),
                             _tol=tol)
        point = _common_point(unique, tol)
        if point is not None:
            return ArcRegion(circles=tuple(unique), arcs=(),
                             degenerate_point=point, _tol=tol)
        raise DisjointDisksError("the disks have no common point")


def _dedupe(circles: Iterable[Circle], tol: float) -> list[Circle]:
    out: list[Circle] = []
    for c in circles:
        duplicate = any(
            abs(c.cx - o.cx) <= tol and abs(c.cy - o.cy) <= tol
            and abs(c.r - o.r) <= tol
            for o in out
        )
        if not duplicate:
            out.append(c)
    return out


def _arc_inside(ci: Circle, cj: Circle,
                tol: float) -> tuple[float, float] | None:
    """Angular window of circle ``ci`` lying inside disk ``cj``.

    Returns ``None`` when disk ``cj`` covers all of circle ``ci`` (no
    constraint), or ``(center_angle, half_width)`` otherwise.  A
    ``half_width`` of 0 means no part of circle ``ci`` is inside ``cj``.
    """
    d = math.hypot(cj.cx - ci.cx, cj.cy - ci.cy)
    if d + ci.r <= cj.r + tol:
        return None  # disk j contains circle i entirely
    if d >= ci.r + cj.r - tol or d + cj.r <= ci.r + tol:
        # Disks (nearly) disjoint, or disk j strictly inside disk i: circle
        # i's circumference never enters disk j.
        return (0.0, 0.0)
    cos_alpha = (d * d + ci.r * ci.r - cj.r * cj.r) / (2.0 * d * ci.r)
    cos_alpha = max(-1.0, min(1.0, cos_alpha))
    alpha = math.acos(cos_alpha)
    center = math.atan2(cj.cy - ci.cy, cj.cx - ci.cx)
    return (center, alpha)


def _common_point(circles: Sequence[Circle], tol: float) -> Point | None:
    """A point in the intersection of all closed disks when that
    intersection has collapsed to (numerically) a single point."""
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            for p in circle_circle_intersection(circles[i], circles[j], tol):
                if all(c.contains_point(p.x, p.y, tol=tol) for c in circles):
                    return p
    # Tangent containments can meet at a point that is not a circumference
    # crossing of any pair; fall back to testing circle centres.
    for c in circles:
        if all(o.contains_point(c.cx, c.cy, tol=tol) for o in circles):
            return Point(c.cx, c.cy)
    return None
