"""An R-tree over rectangles, built from scratch.

Supports the three operations the MaxBRkNN pipeline needs — Sort-Tile-
Recursive (STR) bulk loading, rectangle range search and best-first
nearest-neighbour search — plus dynamic insertion with Guttman's quadratic
split and deletion with re-insertion, so the index is usable as a general
substrate.

Items are arbitrary Python objects paired with their bounding
:class:`~repro.geometry.rect.Rect`.  Point data is indexed with degenerate
rectangles; circles with their bounding boxes (the caller re-checks the
exact circle predicate, as MaxOverlap does in step (d) of its pipeline).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, Iterator

from repro.geometry.rect import Rect
from repro.obs import metrics as _obs_metrics

#: Deterministic work counter: nodes examined by range/nearest queries.
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

    def entry_rect(self, index: int) -> Rect:
        if self.is_leaf:
            return self.entries[index][0]
        return self.entries[index].rect


class RTree:
    """R-tree with STR bulk loading and quadratic-split insertion.

    Parameters
    ----------
    max_entries:
        Node fan-out ``M``; the minimum fill ``m`` is ``max(2, M * 0.4)``,
        the classic Guttman recommendation.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._max_entries = max_entries
        self._min_entries = max(2, int(max_entries * 0.4))
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

    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one item (Guttman insertion with quadratic split)."""
        self._size += 1
        split = self._insert_into(self._root, rect, item)
        if split is not None:
            old_root = self._root
            new_root = _Node(is_leaf=False)
            new_root.entries = [old_root, split]
            new_root.recompute_rect()
            self._root = new_root

    def delete(self, rect: Rect, item: Any) -> bool:
        """Remove one item found by identity/equality under ``rect``.

        Returns True when the item was found.  Underfull nodes along the
        path are dissolved and their residents re-inserted (the standard
        condense-tree strategy).
        """
        path = self._find_leaf(self._root, rect, item, [])
        if path is None:
            return False
        leaf = path[-1]
        leaf.entries = [(r, it) for (r, it) in leaf.entries
                        if not (it == item and r == rect)]
        self._size -= 1

        orphans: list = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if len(node.entries) < self._min_entries:
                parent.entries.remove(node)
                orphans.append(node)
            else:
                node.recompute_rect()
        for node in path:
            node.recompute_rect()
        if not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0]
        for node in orphans:
            for entry in _iter_leaf_entries(node):
                self._size -= 1  # re-insert bumps it back
                self.insert(entry[0], entry[1])
        return True

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

    def search_point(self, x: float, y: float) -> list[Any]:
        """All items whose rectangle contains the point."""
        return self.search(Rect(x, y, x, y))

    def nearest(self, x: float, y: float, k: int = 1,
                max_distance: float = math.inf) -> list[tuple[float, Any]]:
        """The ``k`` items nearest to ``(x, y)`` by rectangle distance.

        Best-first search over node MBRs; for point data (degenerate
        rectangles) the returned distances are exact point distances.
        Returns ``(distance, item)`` pairs in ascending distance order.
        """
        if k < 1:
            raise ValueError("k must be positive")
        out: list[tuple[float, Any]] = []
        if self._root.rect is None:
            return out
        counter = 0  # tie-break heap entries; items may not be orderable
        heap: list[tuple[float, int, bool, Any]] = [
            (self._root.rect.min_distance_to_point(x, y), counter, False,
             self._root)
        ]
        visits = 0
        while heap:
            dist, _, is_item, payload = heapq.heappop(heap)
            if dist > max_distance:
                break
            if is_item:
                out.append((dist, payload))
                if len(out) == k:
                    break
                continue
            visits += 1
            node: _Node = payload
            if node.is_leaf:
                for rect, item in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (rect.min_distance_to_point(x, y), counter, True,
                         item))
            else:
                for child in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (child.rect.min_distance_to_point(x, y), counter,
                         False, child))
        _NODE_VISITS.add(visits)
        return out

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Iterate over all ``(rect, item)`` pairs."""
        yield from _iter_leaf_entries(self._root)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _insert_into(self, node: _Node, rect: Rect,
                     item: Any) -> _Node | None:
        """Insert recursively; returns a sibling node when ``node`` split."""
        if node.is_leaf:
            node.entries.append((rect, item))
        else:
            child = _choose_subtree(node, rect)
            split = self._insert_into(child, rect, item)
            if split is not None:
                node.entries.append(split)
        if len(node.entries) > self._max_entries:
            sibling = self._quadratic_split(node)
            node.recompute_rect()
            return sibling
        node.rect = rect if node.rect is None else node.rect.union(rect)
        return None

    def _quadratic_split(self, node: _Node) -> _Node:
        """Guttman's quadratic split: seed with the most wasteful pair, then
        greedily assign by enlargement preference."""
        entries = node.entries
        rect_of: Callable[[Any], Rect]
        if node.is_leaf:
            rect_of = lambda e: e[0]  # noqa: E731 - local accessor
        else:
            rect_of = lambda e: e.rect  # noqa: E731

        seed_a, seed_b = _pick_seeds(entries, rect_of)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = rect_of(entries[seed_a])
        rect_b = rect_of(entries[seed_b])
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]

        while rest:
            # Force-assign when one group must take everything remaining to
            # reach the minimum fill.
            if len(group_a) + len(rest) == self._min_entries:
                group_a.extend(rest)
                for e in rest:
                    rect_a = rect_a.union(rect_of(e))
                rest = []
                break
            if len(group_b) + len(rest) == self._min_entries:
                group_b.extend(rest)
                for e in rest:
                    rect_b = rect_b.union(rect_of(e))
                rest = []
                break
            best_i, best_diff, best_da, best_db = -1, -1.0, 0.0, 0.0
            for i, e in enumerate(rest):
                r = rect_of(e)
                da = rect_a.enlargement(r)
                db = rect_b.enlargement(r)
                diff = abs(da - db)
                if diff > best_diff:
                    best_i, best_diff, best_da, best_db = i, diff, da, db
            e = rest.pop(best_i)
            r = rect_of(e)
            take_a = (best_da < best_db
                      or (best_da == best_db and rect_a.area <= rect_b.area))
            if take_a:
                group_a.append(e)
                rect_a = rect_a.union(r)
            else:
                group_b.append(e)
                rect_b = rect_b.union(r)

        node.entries = group_a
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.entries = group_b
        sibling.recompute_rect()
        node.recompute_rect()
        return sibling

    def _find_leaf(self, node: _Node, rect: Rect, item: Any,
                   path: list[_Node]) -> list[_Node] | None:
        path.append(node)
        if node.is_leaf:
            for r, it in node.entries:
                if it == item and r == rect:
                    return path
        else:
            for child in node.entries:
                if child.rect is not None and child.rect.intersects(rect):
                    found = self._find_leaf(child, rect, item, path)
                    if found is not None:
                        return found
        path.pop()
        return None


def _choose_subtree(node: _Node, rect: Rect) -> _Node:
    """Child needing the least enlargement (ties: smallest area)."""
    best = None
    best_key = (math.inf, math.inf)
    for child in node.entries:
        key = (child.rect.enlargement(rect), child.rect.area)
        if key < best_key:
            best_key = key
            best = child
    return best


def _pick_seeds(entries: list, rect_of: Callable[[Any], Rect]) -> tuple[int, int]:
    """The pair whose union wastes the most area (quadratic PickSeeds)."""
    best = (0, 1)
    worst_waste = -math.inf
    n = len(entries)
    for i in range(n):
        ri = rect_of(entries[i])
        for j in range(i + 1, n):
            rj = rect_of(entries[j])
            waste = ri.union(rj).area - ri.area - rj.area
            if waste > worst_waste:
                worst_waste = waste
                best = (i, j)
    return best


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


def _iter_leaf_entries(node: _Node) -> Iterator[tuple[Rect, Any]]:
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.is_leaf:
            yield from cur.entries
        else:
            stack.extend(cur.entries)
