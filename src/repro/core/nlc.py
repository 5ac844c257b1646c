"""Nearest location circle (NLC) construction.

This is the pre-processing step of both MaxFirst and MaxOverlap: for every
customer object ``o``, find its ``k`` nearest service sites and materialise
the ``k`` concentric NLCs with their Definition 2 scores.  The paper
budgets ``O(|O| log |P|)`` for this step using an R-tree over the sites.
One exact search, :func:`knn_chunked`, answers every kNN query here, at
every site count:

* With the compiled kernel loaded it searches a static bucket kd-tree of
  the sites (:class:`SiteTree`, built once per site set), which stands in
  for the paper's R-tree at the same ``O(log |P|)`` sites per query.  It
  prunes a node only when its box distance² is strictly greater than the
  current k-th ``(distance², index)``; that bound never exceeds the
  computed distance² of a site inside the box, so results are
  bit-identical to the numpy scan.
* ``REPRO_NO_CKERNEL=1`` forces that scan: a chunked ``argpartition``
  over every site, the oracle the identity tests compare against.

Both paths compute each distance as ``sqrt(dx*dx + dy*dy)`` and share the
``(distance, index)`` tie-break.  Their work is observable through the
``nlc_build_queries`` / ``nlc_build_chunks`` counters (see
docs/observability.md), which the CI perf gate diffs against its blessed
baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.probability import (
    ProbabilityLike,
    ProbabilityModel,
    resolve_models,
)
from repro.core.problem import MaxBRkNNProblem
from repro.geometry.rect import Rect
from repro.index._ckernel import KnnKernel, load_knn_kernel
from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store import NLCStore

#: Queries per counted chunk of :func:`knn_chunked`, and the numpy scan's
#: rows per chunk at up to ``_SCAN_ELEMENTS // _BRUTE_CHUNK`` sites.
_BRUTE_CHUNK = 2048
#: Scratch budget of one numpy scan chunk, in (query, site) pairs: 2048
#: rows at 4096 sites.  Larger site sets scan fewer rows per chunk.
_SCAN_ELEMENTS = _BRUTE_CHUNK * 4096

#: Deterministic work counters: kNN queries answered and
#: ``_BRUTE_CHUNK``-query chunks during NLC construction.  Counted by
#: the same formula on the compiled and numpy kernel paths (like
#: ``kernel_batches``), so the perf gate sees identical values on both
#: CI arms.
_NLC_QUERIES = _obs_metrics.counter("nlc_build_queries")
_NLC_CHUNKS = _obs_metrics.counter("nlc_build_chunks")
#: High-water process RSS observed after each streamed build chunk — the
#: figure the out-of-core tier keeps at O(chunk) while the store grows.
_CHUNK_RSS_PEAK = _obs_metrics.gauge("nlc_build_chunk_rss_peak")
# Sites per SiteTree leaf (at most): small enough that a query scans few
# sites past its k-th neighbour, large enough to keep the tree shallow.
_TREE_LEAF = 8


class SiteTree:
    """Static bucket kd-tree over one site set: the prepared index of the
    compiled search (see ``knn_tree_build`` in ``_quadkernel.c``).

    An implicit complete binary tree of ``depth`` levels: internal nodes
    split their sites at the median on the wider axis of their box,
    leaves hold at most ``_TREE_LEAF`` sites, and ``boxes`` holds every
    node's tight ``(xmin, ymin, xmax, ymax)``.  ``xy`` / ``idx`` are the
    sites in tree order and their original indices; ``points`` is the
    array the tree was built from, which :func:`knn_chunked` accepts
    again without comparing every site.
    """

    __slots__ = ("xy", "idx", "boxes", "depth", "points")

    def __init__(self, points: np.ndarray, kernel: KnnKernel) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        n = points.shape[0]
        depth = 0
        while -(-n // (1 << depth)) > _TREE_LEAF:
            depth += 1
        self.depth = depth
        self.points = points
        self.xy = np.empty((n, 2), dtype=np.float64)
        self.idx = np.empty(n, dtype=np.int64)
        self.boxes = np.empty(((2 << depth) - 1, 4), dtype=np.float64)
        kernel.build(points.ctypes.data, n, depth, self.xy.ctypes.data,
                     self.idx.ctypes.data, self.boxes.ctypes.data)

    def __len__(self) -> int:
        return int(self.idx.shape[0])


def build_knn_tree(points: np.ndarray) -> SiteTree | None:
    """Prebuild the site index :func:`knn_chunked` searches, so callers
    issuing several query batches against the same site set (streamed
    chunks, the pipeline's ``build_nlcs`` stage across repeated runs,
    a served instance) pay construction once.  Without the kernel
    (``REPRO_NO_CKERNEL=1``) the numpy scan has no index and this
    returns ``None``.
    """
    kernel = load_knn_kernel()
    return SiteTree(points, kernel) if kernel is not None else None


def knn_distances(queries: np.ndarray, points: np.ndarray, k: int,
                  tree: SiteTree | None = None) -> np.ndarray:
    """Distances from each query to its ``k`` nearest ``points``.

    Returns an ``(n_queries, k)`` array of ascending distances: the
    first half of :func:`knn_chunked`, for callers that only need radii.
    ``tree`` optionally reuses a :func:`build_knn_tree` index over
    ``points``.
    """
    return knn_chunked(queries, points, k, tree=tree)[0]


def build_nlcs(problem: MaxBRkNNProblem, keep_zero_score: bool = False,
               tree: SiteTree | None = None) -> CircleSet:
    """Materialise the scored NLCs of every customer object.

    By default NLCs whose Definition 2 score is zero are dropped: a
    zero-score disk cannot change ``total_score`` anywhere, so it affects
    neither the optimum nor the optimal region.  (Under the uniform model
    only the ``k``-th NLC of each object carries score — exactly the circles
    the MaxOverlap extension in Section I uses.)  Pass
    ``keep_zero_score=True`` to keep all ``k`` disks per object, matching
    the paper's presentation literally.  ``tree`` optionally reuses a
    prebuilt :func:`build_knn_tree` index over the sites.

    An all-zero-weight instance is short-circuited before the kNN pass:
    every disk would score zero and be dropped, so the build does no
    counted work (the degenerate-instance schema tests rely on this).
    """
    if not keep_zero_score and not np.any(problem.weights):
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return CircleSet(empty_f, empty_f, empty_f, empty_f,
                         owners=empty_i, levels=empty_i)
    dists = knn_distances(problem.customers, problem.sites, problem.k,
                          tree=tree)
    score_rows = _score_rows(problem.models, problem.k, {})
    cx, cy, radii, scores, owners, levels = nlc_soa_chunk(
        problem.customers, problem.weights, score_rows, dists, 0,
        keep_zero_score)
    return CircleSet(cx, cy, radii, scores, owners=owners, levels=levels)


def _score_base(model: "ProbabilityModel",
                cache: dict[tuple, np.ndarray]) -> np.ndarray:
    """Unit-weight Definition 2 score row of one model, cached by its
    probability tuple (shared across chunks of a streaming build)."""
    base = cache.get(model.probs)
    if base is None:
        base = np.array(model.scores(1.0), dtype=np.float64)
        cache[model.probs] = base
    return base


def _score_rows(models: Sequence["ProbabilityModel"], k: int,
                cache: dict[tuple, np.ndarray]) -> np.ndarray:
    """Unit-weight score rows of ``models``, one ``(k,)`` row per
    customer, filled per distinct model object rather than per customer.

    When every customer shares one model (the ``None``, single-model and
    flat-sequence forms of :func:`resolve_models`) the result is a
    read-only broadcast of that model's row; otherwise each customer's
    row is gathered from the table of distinct model objects.
    """
    m = len(models)
    # list.count tests identity before equality, so the shared-model
    # forms ([model] * n) cost one C-level pass and no allocation.
    if models.count(models[0]) == m:
        return np.broadcast_to(_score_base(models[0], cache), (m, k))
    ids = np.fromiter(map(id, models), dtype=np.uintp, count=m)
    _, first, inverse = np.unique(ids, return_index=True,
                                  return_inverse=True)
    table = np.stack([_score_base(models[i], cache) for i in first])
    return table[inverse]


def nlc_soa_chunk(customers: np.ndarray, weights: np.ndarray,
                  score_rows: np.ndarray, dists: np.ndarray,
                  owner_base: int, keep_zero_score: bool
                  ) -> tuple[np.ndarray, ...]:
    """Assemble one store-ready SoA chunk from its kNN distances.

    ``score_rows`` are the *unit-weight* per-customer score rows (they
    are scaled by ``weights`` here); ``owner_base`` offsets the owner
    indices so streamed chunks carry global customer ids.  The zero-
    score filter matches :func:`build_nlcs` element for element, so
    concatenating every chunk reproduces the batch build bit-for-bit.
    """
    m, k = dists.shape
    weighted = score_rows * weights[:, None]
    scores = weighted.reshape(-1)
    owners = np.repeat(
        np.arange(owner_base, owner_base + m, dtype=np.int64), k)
    levels = np.tile(np.arange(1, k + 1, dtype=np.int64), m)
    cx = np.repeat(customers[:, 0], k)
    cy = np.repeat(customers[:, 1], k)
    radii = dists.reshape(-1)
    if not keep_zero_score:
        keep = scores > 0.0
        cx, cy = cx[keep], cy[keep]
        radii, scores = radii[keep], scores[keep]
        owners, levels = owners[keep], levels[keep]
    return (cx, cy, radii, scores, owners, levels)


def stream_nlc_chunks(customer_chunks: "Iterable[np.ndarray]",
                      sites: np.ndarray, k: int,
                      weight_chunks: "Iterable[np.ndarray] | None" = None,
                      probability: "ProbabilityLike" = None,
                      keep_zero_score: bool = False,
                      tree: SiteTree | None = None,
                      ) -> "Iterator[tuple[np.ndarray, ...]]":
    """Yield store-ready SoA chunks from streamed customer coordinates.

    The problem-free core of :func:`build_nlcs_streaming`: the full
    customer set never materialises — each ``(m, 2)`` chunk is kNN'd,
    scored, zero-filtered and yielded as the six field arrays (global
    owner ids), ready for a :class:`repro.store.StoreWriter`.  Peak RAM
    is O(chunk) + O(sites).  ``probability`` accepts the shared forms
    (``None``, one model, one sequence); per-customer model lists need
    the problem-level API.  ``weight_chunks``, when given, must pair
    one-to-one with the customer chunks (``ValueError`` otherwise).  The
    ``nlc_build_chunk_rss_peak`` gauge records the process high-water
    mark after every chunk.
    """
    sites = np.ascontiguousarray(sites, dtype=np.float64)
    if tree is None:
        tree = build_knn_tree(sites)
    base = np.array(
        resolve_models(probability, int(k), 1)[0].scores(1.0),
        dtype=np.float64)
    weight_iter = iter(weight_chunks) if weight_chunks is not None else None
    offset = 0
    for index, chunk in enumerate(customer_chunks):
        chunk = np.asarray(chunk, dtype=np.float64)
        m = chunk.shape[0]
        if weight_iter is None:
            weights = np.ones(m, dtype=np.float64)
        else:
            weights = next(weight_iter, None)
            if weights is None:
                raise ValueError(
                    "fewer weight chunks than customer chunks (none for "
                    f"customer chunk {index})")
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != m:
                raise ValueError(
                    "weight chunk length does not match customer chunk")
        dists = knn_distances(chunk, sites, k, tree=tree)
        yield nlc_soa_chunk(chunk, weights,
                            np.broadcast_to(base, (m, base.shape[0])),
                            dists, offset, keep_zero_score)
        offset += m
        _observe_chunk_rss()
    if weight_iter is not None and next(weight_iter, None) is not None:
        raise ValueError("more weight chunks than customer chunks")


def _observe_chunk_rss() -> None:
    """Record the process peak RSS in ``nlc_build_chunk_rss_peak``."""
    rss = _obs_metrics.peak_rss_bytes()
    if rss is not None:
        _CHUNK_RSS_PEAK.observe_max(rss)


def build_nlcs_streaming(problem: MaxBRkNNProblem,
                         store: str | None = None,
                         chunk_size: int = 65536,
                         keep_zero_score: bool = False,
                         tree: SiteTree | None = None) -> "NLCStore":
    """Build the NLC set straight into a storage backend, chunk by chunk.

    The streaming sibling of :func:`build_nlcs`: customers are processed
    in ``chunk_size`` slices and each finished SoA chunk goes straight
    into a :func:`repro.store.writer` reservation of ``n * k`` rows, so
    peak RAM stays O(chunk) while the store grows to O(n) — the basis of
    the out-of-core tier (``store="memmap"``).  Returns the sealed
    :class:`repro.store.NLCStore`; attach views with
    :func:`repro.store.attach` / ``attach_slice``.

    The attached arrays are bit-identical to ``build_nlcs(problem)`` for
    every backend and chunk size (per-chunk kNN, scoring and the
    zero-score filter are element-wise identical; chunks concatenate in
    customer order).  Work counters also match whenever ``chunk_size``
    is a multiple of the kNN search's counted chunk (2048), because
    only the final chunk is then partial — the identity tests pin this.
    The all-zero-weight short-circuit of :func:`build_nlcs` applies: the
    sealed store is empty and no counted work runs.
    """
    from repro import store as repro_store

    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    n, k = problem.n_customers, problem.k
    degenerate = not keep_zero_score and not np.any(problem.weights)
    writer = repro_store.writer(0 if degenerate else n * k, store)
    try:
        if not degenerate:
            if tree is None:
                tree = build_knn_tree(problem.sites)
            cache: dict[tuple, np.ndarray] = {}
            for start in range(0, n, chunk_size):
                stop = min(start + chunk_size, n)
                score_rows = _score_rows(problem.models[start:stop], k,
                                         cache)
                dists = knn_distances(problem.customers[start:stop],
                                      problem.sites, k, tree=tree)
                writer.append(nlc_soa_chunk(
                    problem.customers[start:stop],
                    problem.weights[start:stop], score_rows, dists,
                    start, keep_zero_score))
                _observe_chunk_rss()
    except BaseException:
        writer.abort()
        raise
    return writer.finalize()


def nlc_space(nlcs: CircleSet, margin_fraction: float = 1e-6) -> Rect:
    """The data space MaxFirst partitions: the bounding box of all NLCs.

    Locations outside every NLC have zero influence, so no optimal region
    (of positive score) can extend past this box.  A relative margin keeps
    circle/boundary tangencies strictly interior.
    """
    box = nlcs.bounding_box()
    margin = max(box.width, box.height, 1.0) * margin_fraction
    return box.expanded(margin)


# ---------------------------------------------------------------------- #
# The kNN search
# ---------------------------------------------------------------------- #

def knn_chunked(queries: np.ndarray, points: np.ndarray, k: int,
                tree: SiteTree | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN of every query: ``(distances, indices)``, both
    ``(n_queries, k)``, rows ascending by distance.

    The one kNN search behind :func:`build_nlcs`, the streamed builds
    and :func:`repro.core.queries.knn_sites`, at every site count.  The
    hot path is the compiled ``knn_tree_search`` kernel: a depth-first
    search of the sites' :class:`SiteTree` (``tree``, which must index
    exactly ``points``, or one built here when the caller passes none)
    with a bounded ``(distance², index)`` max-heap per query,
    O(log |P|) sites per query instead of all of them.  A
    node is pruned only when its box distance², grouped like a site's
    ``dx*dx + dy*dy``, is strictly greater than the current k-th
    distance²; monotone IEEE rounding keeps that bound at or below the
    computed distance² of every site inside the box, so no candidate of
    the exact answer, and no distance tie, is ever skipped.  With
    ``REPRO_NO_CKERNEL=1`` or when the kernel is unavailable, the numpy
    ``argpartition`` scan of every site computes bit-identical results,
    chunked to bound its scratch at ``_SCAN_ELEMENTS`` (query, site)
    pairs.
    On both paths each row's ``k`` winners follow the deterministic
    ``(distance, index)`` tie-break — equidistant sites always resolve
    to the lowest index, even when the tie straddles the selection
    boundary.  ``nlc_build_queries`` / ``nlc_build_chunks`` are counted
    by formula, identically on both paths.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = queries.shape[0]
    n_points = points.shape[0]
    if k < 1 or k > n_points:
        raise ValueError(f"k={k} out of range for {n_points} points")
    dists = np.empty((n, k), dtype=np.float64)
    indices = np.empty((n, k), dtype=np.int64)
    _NLC_QUERIES.add(n)
    _NLC_CHUNKS.add(-(-n // _BRUTE_CHUNK))
    kernel = load_knn_kernel()
    if kernel is not None:
        if tree is None:
            tree = SiteTree(points, kernel)
        elif tree.points is not points and not (
                len(tree) == n_points
                and np.array_equal(tree.xy, points[tree.idx])):
            raise ValueError("site index was built over other sites")
        rc = kernel.search(queries.ctypes.data, n, tree.xy.ctypes.data,
                           tree.idx.ctypes.data, n_points,
                           tree.boxes.ctypes.data, tree.depth, k,
                           dists.ctypes.data, indices.ctypes.data)
        if rc == 0:
            return dists, indices
        # Allocation failure inside the kernel (k was validated above):
        # redo the whole batch on the numpy path rather than trust
        # partial output.
    _knn_chunked_numpy(queries, points, k, dists, indices)
    return dists, indices


def _knn_chunked_numpy(queries: np.ndarray, points: np.ndarray, k: int,
                       dists: np.ndarray, indices: np.ndarray) -> None:
    """Numpy fallback body of :func:`knn_chunked` (fills ``dists`` /
    ``indices`` in place).  Each chunk scans at most ``_BRUTE_CHUNK``
    rows and at most ``_SCAN_ELEMENTS`` (query, site) pairs, one row at
    the least."""
    n = queries.shape[0]
    n_points = points.shape[0]
    step = max(1, min(_BRUTE_CHUNK, _SCAN_ELEMENTS // n_points))
    px = points[:, 0]
    py = points[:, 1]
    # One row-index column vector for every full chunk; only the final
    # partial chunk needs a shorter slice of it.
    rows = np.arange(min(step, n), dtype=np.int64)[:, None]
    full_tile = (np.tile(np.arange(n_points, dtype=np.int64),
                         (min(step, n), 1))
                 if k >= n_points else None)
    for start in range(0, n, step):
        stop = min(start + step, n)
        chunk = queries[start:stop]
        dx = chunk[:, 0:1] - px[None, :]
        dy = chunk[:, 1:2] - py[None, :]
        d2 = dx * dx + dy * dy
        if full_tile is None:
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        else:
            part = full_tile[:stop - start]
        r = rows[:stop - start]
        cand = d2[r, part]
        order = np.lexsort((part, cand), axis=1)
        sel_idx = part[r, order]
        sel_d2 = cand[r, order]
        if full_tile is None:
            _fix_boundary_ties(d2, sel_idx, sel_d2)
        dists[start:stop] = np.sqrt(sel_d2)
        indices[start:stop] = sel_idx


def _fix_boundary_ties(d2: np.ndarray, sel_idx: np.ndarray,
                       sel_d2: np.ndarray) -> None:
    """Re-select rows where a distance tie straddles the ``argpartition``
    boundary (in place).

    ``argpartition`` picks an *arbitrary* subset of a tie group that
    crosses position ``k``; sorting afterwards fixes the order of the
    chosen ``k`` but not which indices were chosen.  Rows where the
    k-th distance has more ties in the full row than in the selection
    are re-selected by the strict ``(distance², index)`` rule, so the
    winners — not just their order — are deterministic and match the
    compiled kernel bit for bit.
    """
    kth = sel_d2[:, -1:]
    row_ties = (d2 == kth).sum(axis=1)
    sel_ties = (sel_d2 == kth).sum(axis=1)
    k = sel_idx.shape[1]
    for row in np.flatnonzero(row_ties > sel_ties):
        full = np.argsort(d2[row], kind="stable")[:k]
        sel_idx[row] = full
        sel_d2[row] = d2[row, full]
