"""Axis-aligned rectangles.

Rectangles play two roles in this library: they are the *quadrants* that
MaxFirst recursively partitions (Algorithm 1 of the paper), and they are the
bounding boxes stored in the R-tree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are legal; they arise
    as bounding boxes of single points.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"malformed Rect: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "Rect":
        """Bounding box of an iterable of ``(x, y)`` pairs.

        Raises ``ValueError`` on an empty iterable.
        """
        it = iter(points)
        try:
            x0, y0 = next(it)
        except StopIteration:
            raise ValueError("Rect.from_points: empty iterable") from None
        xmin = xmax = float(x0)
        ymin = ymax = float(y0)
        for x, y in it:
            xmin = min(xmin, x)
            xmax = max(xmax, x)
            ymin = min(ymin, y)
            ymax = max(ymax, y)
        return cls(xmin, ymin, xmax, ymax)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) * 0.5,
                     (self.ymin + self.ymax) * 0.5)

    @property
    def diagonal(self) -> float:
        import math
        return math.hypot(self.width, self.height)

    def contains_point(self, x: float, y: float) -> bool:
        """True when ``(x, y)`` lies in the closed rectangle."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        return (self.xmin <= other.xmax and other.xmin <= self.xmax
                and self.ymin <= other.ymax and other.ymin <= self.ymax)

    def union(self, other: "Rect") -> "Rect":
        """The smallest rectangle covering both operands."""
        return Rect(min(self.xmin, other.xmin), min(self.ymin, other.ymin),
                    max(self.xmax, other.xmax), max(self.ymax, other.ymax))

    def expanded(self, margin: float) -> "Rect":
        """A copy grown by ``margin`` on every side."""
        return Rect(self.xmin - margin, self.ymin - margin,
                    self.xmax + margin, self.ymax + margin)

    def split_at(self, x: float, y: float) -> tuple["Rect", ...]:
        """Split into (up to) four sub-rectangles at an interior point.

        This is the primitive behind both the regular centre split and the
        intersection-point split of Algorithm 1.  The split point must lie in
        the closed rectangle; sub-rectangles that would be degenerate *slivers*
        (the point lying exactly on an edge) are still returned — degenerate
        rectangles are harmless downstream — except that exact duplicates are
        dropped.
        """
        if not self.contains_point(x, y):
            raise ValueError(f"split point ({x}, {y}) outside {self}")
        quads = (
            Rect(self.xmin, self.ymin, x, y),
            Rect(x, self.ymin, self.xmax, y),
            Rect(self.xmin, y, x, self.ymax),
            Rect(x, y, self.xmax, self.ymax),
        )
        seen: set[Rect] = set()
        out: list[Rect] = []
        for quad in quads:
            if quad not in seen:
                seen.add(quad)
                out.append(quad)
        return tuple(out)

    def split_center(self) -> tuple["Rect", ...]:
        """Split into four equal quadrants at the centre (the regular split)."""
        cx = (self.xmin + self.xmax) * 0.5
        cy = (self.ymin + self.ymax) * 0.5
        if self.xmin < cx < self.xmax and self.ymin < cy < self.ymax:
            # Strictly interior centre: the four quadrants are distinct,
            # so skip split_at's containment check and dedup (this runs
            # once per MaxFirst split).
            return (
                Rect(self.xmin, self.ymin, cx, cy),
                Rect(cx, self.ymin, self.xmax, cy),
                Rect(self.xmin, cy, cx, self.ymax),
                Rect(cx, cy, self.xmax, self.ymax),
            )
        # Degenerate (zero-extent side, or a side so thin the midpoint
        # rounds onto an edge): fall back to the deduplicating split.
        return self.split_at(cx, cy)
