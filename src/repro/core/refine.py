"""Compatibility refinement of a quadrant's upper bound.

Theorem 1's ``m̂ax`` adds the scores of *every* disk whose interior meets
the quadrant, even when two of those disks cannot both contain any single
location in it.  Usually that slack disappears after a few splits — but
not always.  Two NLCs that are *exactly tangent* (pervasive on gridded
data: the NLCs of two customers equidistant from a shared nearest site
touch at that site) enclose a quadratically-thin cusp.  Quadrants
straddling the cusp keep both circles in ``Q.I``, so their ``m̂ax`` stays
one score too high, they are never consistent, Theorem 3 never applies
(each one's ``Q.I`` contains a disk outside every found cover), and the
cusp tessellation grows like ``2^(depth/2)``.  In exact arithmetic the
paper's Algorithm 1 does not terminate on such inputs.

The refinement closes the gap soundly.  For the disks in ``Q.I - Q.C``:

1. certify *incompatible pairs* — two disks that provably share no point
   of the quadrant: their disks are disjoint/tangent, or their lens lies
   in a bounding box that misses the quadrant;
2. any location in the quadrant scores ``sum(Q.C)`` plus the weight of a
   *compatible subset* (a clique of the compatibility graph), so
   ``sum(Q.C) + max-weight-clique`` is a valid upper bound, usually far
   below ``m̂ax`` at a cusp;
3. for the Theorem-3 side: every potentially-optimal compatible subset
   ``S`` sits inside the maximal consistent region covered by
   ``Q.C ∪ S``, so if each such subset extends a found cover, the
   quadrant's optima are all already discovered and it can be pruned.

Clique problems are NP-hard in general; here the vertex sets are the
handful of boundary disks of one quadrant, and the computation only runs
after ``m`` fruitless same-frontier splits (the paper's own trigger for
degeneracy handling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics

#: Deterministic work counter: pairwise compatibility certificates
#: evaluated (identical on the scalar and vectorised adjacency builders
#: — both decide all n·(n-1)/2 pairs).
_REFINE_PAIR_TESTS = _obs_metrics.counter("refine_pair_tests")

# Above this many boundary disks, skip refinement (the clique bound could
# get expensive, and large boundary sets mean the quadrant is still fat —
# regular splitting will thin it out first).
MAX_BOUNDARY_DISKS = 32
# Cap on the enumeration of near-optimal cliques for the Theorem 3 side.
MAX_ENUMERATED_CLIQUES = 64


@dataclass(frozen=True)
class Refinement:
    """Outcome of a refinement pass over one quadrant.

    ``refined_max`` is the compatibility-aware upper bound (``<= m̂ax``).
    ``top_cliques`` holds the compatible subsets (as index tuples into the
    NLC set) whose value reaches ``value_floor``; ``complete`` is False
    when enumeration was truncated (callers must then be conservative).
    """

    refined_max: float
    top_cliques: tuple[tuple[int, ...], ...]
    complete: bool


def incompatible_in_rect(nlcs: CircleSet, i: int, j: int, rect: Rect,
                         tol: float) -> bool:
    """True when disks ``i`` and ``j`` provably share no point of
    ``rect``.

    Two sound certificates:

    * the closed disks are disjoint or merely tangent
      (``d >= r_i + r_j - tol``) — their common region is empty or a
      single point, which cannot host a full-dimensional optimum;
    * the disks overlap in a lens whose bounding box (chord box expanded
      by the larger sagitta) misses the rectangle.

    Returns False (compatible) whenever no certificate applies — e.g. one
    disk inside the other.
    """
    xi, yi, ri = float(nlcs.cx[i]), float(nlcs.cy[i]), float(nlcs.r[i])
    xj, yj, rj = float(nlcs.cx[j]), float(nlcs.cy[j]), float(nlcs.r[j])
    # sqrt(dx² + dy²) rather than hypot: math.hypot (correctly rounded)
    # and np.hypot (platform libm) can differ in the last ulp, while
    # mul/add/sqrt are correctly rounded in both — keeping this form is
    # what makes _adjacency_vector bit-identical to this reference.
    dx = xj - xi
    dy = yj - yi
    d = math.sqrt(dx * dx + dy * dy)
    if d >= ri + rj - tol:
        return True
    if d <= abs(ri - rj):
        # One disk inside the other: the lens is the smaller disk, which
        # intersects the rect (both disks are in Q.I).
        return False
    # Proper lens: bound it by the chord box padded by how far each
    # bounding arc reaches from the chord line.  The arc of a circle
    # inside the other disk is the MINOR arc when the other centre lies
    # beyond that circle's chord distance, but the MAJOR arc when the
    # other disk nearly contains it — then the reach is radius PLUS the
    # centre's chord distance (the near-containment case that a
    # minor-arc-only sagitta would under-estimate).
    ell = (d * d + ri * ri - rj * rj) / (2.0 * d)
    h2 = max(ri * ri - ell * ell, 0.0)
    h = math.sqrt(h2)
    ux = (xj - xi) / d
    uy = (yj - yi) / d
    px = xi + ell * ux
    py = yi + ell * uy
    chord_x = (px - h * uy, px + h * uy)
    chord_y = (py + h * ux, py - h * ux)
    # Chord-line distances of the two centres.
    dist_i = abs(ell)
    dist_j = abs(d - ell)
    reach_i = ri + dist_i if d < rj else ri - dist_i
    reach_j = rj + dist_j if d < ri else rj - dist_j
    pad = max(reach_i, reach_j, 0.0) + tol
    lens_box = Rect(min(chord_x) - pad, min(chord_y) - pad,
                    max(chord_x) + pad, max(chord_y) + pad)
    return not lens_box.intersects(rect)


def _adjacency_scalar(nlcs: CircleSet, boundary: np.ndarray, rect: Rect,
                      tol: float) -> tuple[np.ndarray, bool]:
    """Pairwise compatibility graph via scalar ``incompatible_in_rect``."""
    n = len(boundary)
    adj = np.ones((n, n), dtype=bool)
    any_incompatible = False
    for a in range(n):
        adj[a, a] = False
        for b in range(a + 1, n):
            if incompatible_in_rect(nlcs, int(boundary[a]),
                                    int(boundary[b]), rect, tol):
                adj[a, b] = adj[b, a] = False
                any_incompatible = True
    return adj, any_incompatible


def _adjacency_vector(nlcs: CircleSet, boundary: np.ndarray, rect: Rect,
                      tol: float) -> tuple[np.ndarray, bool]:
    """Vectorised pairwise ``incompatible_in_rect`` over a boundary set.

    Mirrors the scalar certificate arithmetic operation for operation —
    same subtractions, products and quotients in the same grouping — so
    both builders agree on every pair (asserted by a property test; the
    scalar path stays the reference and the builder for small boundary
    sets).  The matrix is symmetrised from its upper triangle, like
    the scalar double loop that only evaluates ``a < b``.

    Degenerate concentric pairs (``d == 0``) divide by zero inside the
    lens arithmetic; those lanes are containment-compatible before the
    lens certificate is consulted, exactly as the scalar early return,
    so the NaNs never reach a decision.
    """
    cx = nlcs.cx[boundary]
    cy = nlcs.cy[boundary]
    r = nlcs.r[boundary]
    xi = cx[:, None]
    yi = cy[:, None]
    ri = r[:, None]
    rj = r[None, :]
    dx = cx[None, :] - xi
    dy = cy[None, :] - yi
    # NOT np.hypot: see the matching comment in incompatible_in_rect —
    # sqrt(dx² + dy²) is the form both builders can round identically.
    d = np.sqrt(dx * dx + dy * dy)
    disjoint = d >= ri + rj - tol
    inside = d <= np.abs(ri - rj)
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = (d * d + ri * ri - rj * rj) / (2.0 * d)
        h = np.sqrt(np.maximum(ri * ri - ell * ell, 0.0))
        ux = dx / d
        uy = dy / d
    px = xi + ell * ux
    py = yi + ell * uy
    chord_x1 = px - h * uy
    chord_x2 = px + h * uy
    chord_y1 = py + h * ux
    chord_y2 = py - h * ux
    dist_i = np.abs(ell)
    dist_j = np.abs(d - ell)
    reach_i = np.where(d < rj, ri + dist_i, ri - dist_i)
    reach_j = np.where(d < ri, rj + dist_j, rj - dist_j)
    pad = np.maximum(np.maximum(reach_i, reach_j), 0.0) + tol
    lens_miss = ((np.minimum(chord_x1, chord_x2) - pad > rect.xmax)
                 | (np.maximum(chord_x1, chord_x2) + pad < rect.xmin)
                 | (np.minimum(chord_y1, chord_y2) - pad > rect.ymax)
                 | (np.maximum(chord_y1, chord_y2) + pad < rect.ymin))
    incompatible = disjoint | (~inside & lens_miss)
    upper = np.triu(incompatible, 1)
    incompatible = upper | upper.T
    adj = ~incompatible
    np.fill_diagonal(adj, False)
    return adj, bool(upper.any())


# Below this many boundary disks the vectorised adjacency builder loses
# to the scalar pair loop on fixed numpy dispatch overhead.
_VECTOR_ADJACENCY_MIN = 8


def refine_quadrant(nlcs: CircleSet, boundary: np.ndarray, rect: Rect,
                    base_score: float, value_floor: float,
                    tol: float) -> Refinement | None:
    """Compatibility-refined upper bound for one quadrant.

    ``boundary`` indexes the disks in ``Q.I - Q.C``; ``base_score`` is
    ``sum(Q.C)``; ``value_floor`` is the score below which subsets are
    irrelevant (the current MaxMin minus tolerance).  Boundary sets of
    ``_VECTOR_ADJACENCY_MIN`` disks or more take the vectorised
    adjacency builder, smaller ones the scalar pair loop.  Returns ``None``
    when refinement does not apply (too many disks, or no incompatible
    pair — then the refined bound would equal ``m̂ax``).
    """
    n = len(boundary)
    if n < 2 or n > MAX_BOUNDARY_DISKS:
        return None
    _REFINE_PAIR_TESTS.add(n * (n - 1) // 2)
    if n >= _VECTOR_ADJACENCY_MIN:
        adj, any_incompatible = _adjacency_vector(nlcs, boundary, rect, tol)
    else:
        adj, any_incompatible = _adjacency_scalar(nlcs, boundary, rect, tol)
    if not any_incompatible:
        return None

    weights = nlcs.scores[boundary]
    best_weight = _max_weight_clique(adj, weights)
    refined_max = base_score + best_weight

    clique_floor = value_floor - base_score
    cliques, complete = _enumerate_heavy_cliques(adj, weights,
                                                 clique_floor)
    top = tuple(tuple(int(boundary[v]) for v in clique)
                for clique in cliques)
    return Refinement(refined_max=refined_max, top_cliques=top,
                      complete=complete)


# ---------------------------------------------------------------------- #
# Small exact clique machinery (n <= MAX_BOUNDARY_DISKS)
# ---------------------------------------------------------------------- #

def _max_weight_clique(adj: np.ndarray, weights: np.ndarray) -> float:
    """Exact maximum-weight clique via branch and bound on bitmasks.

    The search state lives in Python ints and float lists (not numpy
    scalars): the expand loop runs tens of thousands of times per
    refinement-heavy Phase I, and ``np.float64`` arithmetic in it costs
    more than the branching itself.  Values are identical — ``tolist``
    round-trips float64 exactly.
    """
    n = adj.shape[0]
    order = np.argsort(-weights)
    adj_bits = [0] * n
    for a in range(n):
        bits = 0
        for b in range(n):
            if adj[order[a], order[b]]:
                bits |= 1 << b
        adj_bits[a] = bits
    w_arr = weights[order]
    w = w_arr.tolist()
    suffix = np.concatenate((np.cumsum(w_arr[::-1])[::-1], [0.0])).tolist()

    best = 0.0

    def expand(candidates: int, current: float) -> None:
        nonlocal best
        if current > best:
            best = current
        remaining = candidates
        while remaining:
            low = remaining & -remaining
            v = low.bit_length() - 1
            # Even taking every remaining candidate cannot beat best.
            if current + suffix[v] <= best:
                return
            expand(candidates & adj_bits[v], current + w[v])
            candidates &= ~low
            remaining ^= low

    expand((1 << n) - 1, 0.0)
    return best


def _enumerate_heavy_cliques(adj: np.ndarray, weights: np.ndarray,
                             floor: float
                             ) -> tuple[list[tuple[int, ...]], bool]:
    """All *maximal* cliques of weight ``>= floor`` (capped).

    Maximality matters: the Theorem-3 side only needs the heaviest
    achievable subsets — any sub-clique of a found one is covered a
    fortiori.  Returns ``(cliques, complete)``; ``complete=False`` when
    the cap was hit and callers must not prune.
    """
    n = adj.shape[0]
    adj_bits = [0] * n
    for a in range(n):
        bits = 0
        for b in range(n):
            if adj[a, b]:
                bits |= 1 << b
        adj_bits[a] = bits
    total = float(weights.sum())
    wl = weights.tolist()

    out: list[tuple[int, ...]] = []
    complete = True

    def weight_of(mask: int) -> float:
        s = 0.0
        v = mask
        while v:
            low = v & -v
            s += wl[low.bit_length() - 1]
            v ^= low
        return s

    def bron(r: int, p: int, x: int, r_weight: float,
             p_weight: float) -> None:
        nonlocal complete
        if not complete:
            return
        if r_weight + p_weight < floor:
            return  # cannot reach the floor even taking all of P
        if p == 0 and x == 0:
            if r_weight >= floor:
                if len(out) >= MAX_ENUMERATED_CLIQUES:
                    complete = False
                    return
                clique = []
                v = r
                while v:
                    low = v & -v
                    clique.append(low.bit_length() - 1)
                    v ^= low
                out.append(tuple(clique))
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        candidates = p & ~adj_bits[pivot]
        v = candidates
        while v:
            low = v & -v
            u = low.bit_length() - 1
            bron(r | low, p & adj_bits[u], x & adj_bits[u],
                 r_weight + wl[u],
                 weight_of(p & adj_bits[u]))
            p &= ~low
            x |= low
            v ^= low

    bron(0, (1 << n) - 1, 0, 0.0, total)
    return out, complete
