"""Closed disks (nearest location circles) and their predicates.

In the MaxBRkNN formulation every customer object owns ``k`` concentric
NLCs; geometrically an NLC is a *closed disk*: a new service site placed
exactly on the circumference of the ``i``-th NLC ties with the current
``i``-th nearest site, and the paper counts such boundary placements as
inside (Definition 3 scores any location "inside" the circle; Theorem 1's
proof explicitly treats points on perimeters as intersecting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed disk with centre ``(cx, cy)`` and radius ``r >= 0``.

    A zero-radius circle is legal: it arises when a customer object sits
    exactly on top of a service site.
    """

    cx: float
    cy: float
    r: float

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"negative radius: {self.r}")

    @property
    def center(self) -> Point:
        return Point(self.cx, self.cy)

    @property
    def area(self) -> float:
        return math.pi * self.r * self.r

    def contains_point(self, x: float, y: float, tol: float = 0.0) -> bool:
        """True when ``(x, y)`` lies in the closed disk.

        ``tol`` loosens the boundary test: a point within ``tol`` outside
        the circumference still counts.  The exact-arithmetic algorithms in
        the paper do not need this, but the reference solver scores circle
        intersection points that sit exactly on circumferences, where float
        rounding would otherwise flip the answer.
        """
        dx = x - self.cx
        dy = y - self.cy
        rr = self.r + tol
        return dx * dx + dy * dy <= rr * rr

    def distance_to_center(self, x: float, y: float) -> float:
        return math.hypot(x - self.cx, y - self.cy)

    def signed_boundary_distance(self, x: float, y: float) -> float:
        """Distance from ``(x, y)`` to the circumference, positive inside.

        This is the key ``r - dist(o, s)`` quantity of Algorithm 2 (Phase II
        ordering of NLCs by how soon their circumference could clip the
        growing overlap region).
        """
        return self.r - self.distance_to_center(x, y)

    def point_at(self, angle: float) -> Point:
        """The boundary point at ``angle`` radians (CCW from +x)."""
        return Point(self.cx + self.r * math.cos(angle),
                     self.cy + self.r * math.sin(angle))

    def contains_circle(self, other: "Circle") -> bool:
        """True when ``other``'s disk lies entirely inside this disk."""
        d = math.hypot(other.cx - self.cx, other.cy - self.cy)
        return d + other.r <= self.r

    def intersects_circle(self, other: "Circle") -> bool:
        """True when the closed disks share at least one point."""
        d2 = (other.cx - self.cx) ** 2 + (other.cy - self.cy) ** 2
        rsum = self.r + other.r
        return d2 <= rsum * rsum


def circle_circle_intersection(a: Circle, b: Circle,
                               tol: float = 1e-12) -> tuple[Point, ...]:
    """Intersection points of two circle *circumferences*.

    Returns a tuple of zero, one (tangency) or two points.  Concentric
    circles — even coincident ones — return the empty tuple: coincident
    circumferences share infinitely many points and no finite answer is
    meaningful, and the callers (MaxOverlap's region-to-point transformation
    and the intersection-point splitter) treat that case separately.

    ``tol`` is the absolute slack used to accept grazing tangencies that
    float rounding pushes marginally apart.

    The result is exactly symmetric in its arguments: the computation
    runs in a canonical circle order, so ``(a, b)`` and ``(b, a)``
    return bit-identical points.  Without this, near-coincident circles
    can land the two call orders on opposite sides of a rounding
    boundary (the chord midpoint is computed from whichever centre is
    ``a``, and the two paths differ by one float ulp).
    """
    if (b.cx, b.cy, b.r) < (a.cx, a.cy, a.r):
        a, b = b, a
    dx = b.cx - a.cx
    dy = b.cy - a.cy
    d = math.hypot(dx, dy)
    if d <= tol:
        return ()
    if d > a.r + b.r + tol:
        return ()
    if d < abs(a.r - b.r) - tol:
        return ()
    # Distance from a's centre to the radical line along the centre line.
    ell = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d)
    h2 = a.r * a.r - ell * ell
    ux = dx / d
    uy = dy / d
    px = a.cx + ell * ux
    py = a.cy + ell * uy
    if h2 <= tol * max(1.0, a.r * a.r):
        return (Point(px, py),)
    h = math.sqrt(h2)
    return (
        Point(px - h * uy, py + h * ux),
        Point(px + h * uy, py - h * ux),
    )


def circle_intersects_rect(circle: Circle, rect: Rect) -> bool:
    """True when the disk's *interior* and the closed rectangle share a
    point.

    This predicate computes ``Q.I`` membership (Theorem 1) under region
    semantics: a disk grazing the rectangle at a single boundary point
    contributes no score to any full-dimensional region inside it, so it is
    excluded (strict inequality).  The distance from the circle centre to
    the rectangle is the per-axis clamped distance.
    """
    dx = max(rect.xmin - circle.cx, 0.0, circle.cx - rect.xmax)
    dy = max(rect.ymin - circle.cy, 0.0, circle.cy - rect.ymax)
    return dx * dx + dy * dy < circle.r * circle.r


def circle_contains_rect(circle: Circle, rect: Rect) -> bool:
    """True when the closed disk contains the whole rectangle.

    This predicate computes ``Q.C`` membership (Theorem 1): the farthest
    rectangle corner from the circle centre must lie inside the disk.
    """
    dx = max(circle.cx - rect.xmin, rect.xmax - circle.cx)
    dy = max(circle.cy - rect.ymin, rect.ymax - circle.cy)
    return dx * dx + dy * dy <= circle.r * circle.r
