"""A static R-tree over rectangles, built from scratch.

The paper's MaxFirst finds ``Q.I`` with range queries on an R-tree over
the NLCs, bulk-loaded once per query; ``backend="rtree"``
(:class:`~repro.core.bounds.RTreeBackend`) is that paper-literal path.
It needs exactly two operations: Sort-Tile-Recursive (STR) bulk loading
and rectangle range search.

Items are arbitrary Python objects paired with their bounding
:class:`~repro.geometry.rect.Rect`; circles are indexed by their bounding
boxes and the caller re-checks the exact circle predicate.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.geometry.rect import Rect
from repro.obs import metrics as _obs_metrics

#: Deterministic work counter: nodes examined by range queries.
#: Accumulated per call (one registry add per query) so the traversal
#: loops stay handle-free.
_NODE_VISITS = _obs_metrics.counter("rtree_node_visits")

DEFAULT_MAX_ENTRIES = 16


class _Node:
    """An R-tree node: leaves hold ``(rect, item)``, internal nodes hold
    child nodes.  ``rect`` is the tight bounding box of the contents."""

    __slots__ = ("is_leaf", "entries", "rect")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list = []  # leaf: (Rect, item); internal: _Node
        self.rect: Rect | None = None

    def recompute_rect(self) -> None:
        if self.is_leaf:
            rects = [r for r, _ in self.entries]
        else:
            rects = [child.rect for child in self.entries]
        if not rects:
            self.rect = None
            return
        out = rects[0]
        for r in rects[1:]:
            out = out.union(r)
        self.rect = out


class RTree:
    """R-tree built by STR bulk loading and queried by rectangle.

    Parameters
    ----------
    max_entries:
        Node fan-out ``M``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._root = _Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def bulk_load(cls, items: Iterable[tuple[Rect, Any]],
                  max_entries: int = DEFAULT_MAX_ENTRIES) -> "RTree":
        """Build with Sort-Tile-Recursive packing.

        STR produces near-optimal leaves for static data, which is how the
        paper's pipeline uses its R-trees (NLCs are built once per query).
        """
        tree = cls(max_entries=max_entries)
        pairs = list(items)
        tree._size = len(pairs)
        if not pairs:
            return tree

        leaves: list[_Node] = []
        for group in _str_tiles(pairs, max_entries,
                                key=lambda pair: pair[0]):
            leaf = _Node(is_leaf=True)
            leaf.entries = group
            leaf.recompute_rect()
            leaves.append(leaf)

        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for group in _str_tiles(level, max_entries,
                                    key=lambda node: node.rect):
                parent = _Node(is_leaf=False)
                parent.entries = group
                parent.recompute_rect()
                parents.append(parent)
            level = parents
        tree._root = level[0]
        return tree

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        h = 1
        node = self._root
        while not node.is_leaf:
            h += 1
            node = node.entries[0]
        return h

    def search(self, query: Rect) -> list[Any]:
        """All items whose rectangle intersects ``query``."""
        out: list[Any] = []
        if self._root.rect is None:
            return out
        stack = [self._root]
        visits = 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.rect is None or not node.rect.intersects(query):
                continue
            if node.is_leaf:
                for rect, item in node.entries:
                    if rect.intersects(query):
                        out.append(item)
            else:
                stack.extend(node.entries)
        _NODE_VISITS.add(visits)
        return out


def _str_tiles(items: list, capacity: int, key: Callable[[Any], Rect]):
    """Group items into STR tiles of at most ``capacity`` (generator).

    Sort by centre-x, slice into vertical strips of ``ceil(sqrt(P))`` runs,
    sort each strip by centre-y and emit runs of ``capacity``.
    """
    n = len(items)
    node_count = math.ceil(n / capacity)
    strip_count = max(1, math.ceil(math.sqrt(node_count)))
    per_strip = strip_count * capacity

    by_x = sorted(items, key=lambda it: (key(it).xmin + key(it).xmax))
    for s in range(0, n, per_strip):
        strip = sorted(by_x[s:s + per_strip],
                       key=lambda it: (key(it).ymin + key(it).ymax))
        for t in range(0, len(strip), capacity):
            yield strip[t:t + capacity]
