"""A 2-d tree over points, built from scratch.

NLC construction issues one kNN query per customer object against the
service sites (Section V-C of the paper budgets ``O(|O| log |P|)`` for this
step).  This pure-Python k-d tree is the default engine above 4096 sites;
results are cross-validated against brute force in the test suite, and
the ``"brute"`` engine (:func:`repro.core.nlc.knn_chunked`: a compiled
bucket kd-tree search, or the numpy scan without the kernel) is picked
automatically for smaller site sets.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.obs import metrics as _obs_metrics

#: Deterministic work counter: nodes examined by kNN/radius queries.
#: Accumulated per call (one registry add per query or batch) so the
#: recursive descent stays handle-free.
_NODE_VISITS = _obs_metrics.counter("kdtree_node_visits")


class _KDNode:
    __slots__ = ("axis", "split", "left", "right", "points", "indices",
                 "px_arr", "py_arr", "idx_arr")

    def __init__(self) -> None:
        self.axis = -1          # -1 marks a leaf
        self.split = 0.0
        self.left: _KDNode | None = None
        self.right: _KDNode | None = None
        self.points: list[tuple[float, float]] = []
        self.indices: list[int] = []
        # Leaf contents as arrays, for the batched descent.
        self.px_arr: np.ndarray | None = None
        self.py_arr: np.ndarray | None = None
        self.idx_arr: np.ndarray | None = None


class KDTree:
    """Static k-d tree over 2-D points with k-nearest-neighbour queries.

    Parameters
    ----------
    points:
        Sequence of ``(x, y)`` pairs (or an ``(n, 2)`` numpy array).
    leaf_size:
        Leaves at or below this size are scanned linearly; 16 balances
        Python call overhead against pruning power.
    """

    def __init__(self, points: Sequence, leaf_size: int = 16) -> None:
        if leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        self._points = [(float(p[0]), float(p[1])) for p in points]
        self._leaf_size = leaf_size
        indices = list(range(len(self._points)))
        self._root = self._build(indices, depth=0) if indices else None

    def __len__(self) -> int:
        return len(self._points)

    def point(self, index: int) -> tuple[float, float]:
        """The stored point with the given original index."""
        return self._points[index]

    def query(self, x: float, y: float,
              k: int = 1) -> list[tuple[float, int]]:
        """The ``k`` nearest stored points to ``(x, y)``.

        Returns ``(distance, index)`` pairs sorted by ascending distance;
        fewer than ``k`` pairs when the tree is smaller than ``k``.
        Distance ties are broken by insertion index so results are
        deterministic — NLC radii must not depend on traversal order.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if self._root is None:
            return []
        # Max-heap of the best k candidates, as (-distance, -index).
        best: list[tuple[float, int]] = []
        _NODE_VISITS.add(self._search(self._root, x, y, k, best))
        out = sorted((-d, -i) for d, i in best)
        return [(d, i) for d, i in out]

    def query_batch(self, queries: np.ndarray,
                    k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Batched kNN: ``(distances, indices)``, both ``(n_queries, k)``.

        One vectorised descent per tree node instead of one Python
        recursion per query: queries are carried down as an index subset
        and partitioned at every internal node, leaves score all their
        resident points against all arriving queries at once.  Requires
        ``1 <= k <= len(self)``.

        Per query the visited node set is exactly the scalar
        :meth:`query`'s — the far-subtree bound is evaluated *after* the
        near subtree completes, as in the scalar descent, and the subset
        recursions are row-disjoint — so ``kdtree_node_visits`` advances
        by the same total.  Distance ties resolve to the lowest stored
        index, also matching :meth:`query`.
        """
        if k < 1 or k > len(self._points):
            raise ValueError(
                f"k={k} out of range for {len(self._points)} points")
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        n = queries.shape[0]
        best_d = np.full((n, k), np.inf, dtype=np.float64)
        best_i = np.full((n, k), len(self._points), dtype=np.int64)
        if n and self._root is not None:
            subset = np.arange(n, dtype=np.int64)
            _NODE_VISITS.add(self._batch_search(
                self._root, queries, subset, k, best_d, best_i))
        return best_d, best_i

    def query_radius(self, x: float, y: float, radius: float) -> list[int]:
        """Indices of all stored points within ``radius`` (closed ball)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        out: list[int] = []
        if self._root is None:
            return out
        r2 = radius * radius
        stack = [self._root]
        visits = 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.axis < 0:
                for (px, py), idx in zip(node.points, node.indices):
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy <= r2:
                        out.append(idx)
                continue
            coord = x if node.axis == 0 else y
            # Prune in the same squared metric the leaf test uses: a
            # linear-space test (coord ± radius vs split) would discard
            # points whose squared distance underflows to within r²
            # (denormal axis gaps square to 0.0).  Float multiply is
            # monotone, so gap² ≤ r² is a sound necessary condition.
            gap = coord - node.split
            if gap <= 0.0 or gap * gap <= r2:
                stack.append(node.left)
            if gap >= 0.0 or gap * gap <= r2:
                stack.append(node.right)
        _NODE_VISITS.add(visits)
        out.sort()
        return out

    # ------------------------------------------------------------------ #

    def _build(self, indices: list[int], depth: int) -> _KDNode:
        node = _KDNode()
        if len(indices) <= self._leaf_size:
            node.indices = indices
            node.points = [self._points[i] for i in indices]
            node.px_arr = np.array([p[0] for p in node.points],
                                   dtype=np.float64)
            node.py_arr = np.array([p[1] for p in node.points],
                                   dtype=np.float64)
            node.idx_arr = np.array(indices, dtype=np.int64)
            return node
        axis = depth % 2
        indices.sort(key=lambda i: self._points[i][axis])
        mid = len(indices) // 2
        node.axis = axis
        node.split = self._points[indices[mid]][axis]
        node.left = self._build(indices[:mid], depth + 1)
        node.right = self._build(indices[mid:], depth + 1)
        return node

    def _search(self, node: _KDNode, x: float, y: float, k: int,
                best: list[tuple[float, int]]) -> int:
        """Recursive kNN descent; returns the number of nodes visited."""
        if node.axis < 0:
            for (px, py), idx in zip(node.points, node.indices):
                d = math.hypot(px - x, py - y)
                entry = (-d, -idx)
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:
                    heapq.heapreplace(best, entry)
            return 1
        coord = x if node.axis == 0 else y
        near, far = ((node.left, node.right) if coord <= node.split
                     else (node.right, node.left))
        visits = 1 + self._search(near, x, y, k, best)
        plane_dist = abs(coord - node.split)
        if len(best) < k or plane_dist <= -best[0][0]:
            visits += self._search(far, x, y, k, best)
        return visits

    def _batch_search(self, node: _KDNode, queries: np.ndarray,
                      subset: np.ndarray, k: int,
                      best_d: np.ndarray, best_i: np.ndarray) -> int:
        """Vectorised kNN descent over a query subset; returns node
        visits (``subset.size`` per node entered, one visit per arriving
        query — the scalar count)."""
        if node.axis < 0:
            ld = np.hypot(queries[subset, 0:1] - node.px_arr[None, :],
                          queries[subset, 1:2] - node.py_arr[None, :])
            comb_d = np.concatenate([best_d[subset], ld], axis=1)
            comb_i = np.concatenate(
                [best_i[subset],
                 np.broadcast_to(node.idx_arr[None, :], ld.shape)], axis=1)
            # Ascending (distance, index): same tie-break as the scalar
            # (-d, -idx) max-heap.
            order = np.lexsort((comb_i, comb_d), axis=1)[:, :k]
            rows = np.arange(subset.size, dtype=np.int64)[:, None]
            best_d[subset] = comb_d[rows, order]
            best_i[subset] = comb_i[rows, order]
            return subset.size
        visits = subset.size
        coord = queries[subset, node.axis]
        near_left = coord <= node.split
        sel_left = subset[near_left]
        sel_right = subset[~near_left]
        if sel_left.size:
            visits += self._batch_search(node.left, queries, sel_left,
                                         k, best_d, best_i)
        if sel_right.size:
            visits += self._batch_search(node.right, queries, sel_right,
                                         k, best_d, best_i)
        # Far subtree, with each query's bound as it stands after its
        # own near subtree (unfilled slots are +inf, so the bound also
        # admits every query that has not seen k points yet).
        go = np.abs(coord - node.split) <= best_d[subset, k - 1]
        far_right = subset[near_left & go]
        if far_right.size:
            visits += self._batch_search(node.right, queries, far_right,
                                         k, best_d, best_i)
        far_left = subset[~near_left & go]
        if far_left.size:
            visits += self._batch_search(node.left, queries, far_left,
                                         k, best_d, best_i)
        return visits
