"""The tile engine: one planner, one per-tile executor, one merge.

Every tile-sharded solve runs through this module, whether its NLC set
lives in RAM or in an out-of-core store.  Planning (:func:`plan_streamed`)
scans a :mod:`repro.store` handle in fixed-size row chunks, so peak RSS
is O(chunk) — a ``ram`` handle makes the scan zero-copy for an in-RAM
set.  Tile halos come from one grid-binned pass (:class:`_HaloScan`):
each disk's bounding box is binned against the grid's cut lines, and
the exact open-disk test runs only on the (row, cell) pairs the binning
yields, so a plan costs O(rows + halo pairs) rather than O(rows x
tiles).  The compiled kernel ``halo_scan`` (``index/_quadkernel.c``)
runs the pass in one call per block of rows; without it
(``REPRO_NO_CKERNEL=1``, or a failed build) :func:`_halo_pairs` runs
it in numpy with ``searchsorted``, and plans identically.  The plan
keeps each tile's halo as a bitmap over its row window, window/8
bytes.  Each tile is solved by :func:`run_tile` over just its halo: it
attaches the tile's row window (:func:`repro.store.attach_slice`),
gathers the halo rows into a compact set and searches that —
in-process, in tile order, by :func:`run_tiles` (``solve_streamed`` and
``ShardedMaxFirst``'s ``mode="tiles"``), or in a pool worker by
:func:`repro.engine.pool.solve_tile`.  Each tile reports its found
regions (:data:`~repro.core.region.FoundRegion`) in store rows, and
those lists double as the seed covers of later tiles.  :func:`merge`
then grows each distinct winning cover once, over the whole set.

Exactness
---------
The planned data space is the chunk-wise union of slice bounding boxes
plus ``nlc_space``'s margin — float min/max commutes with chunking, so
the space (and the resolution derived from it) is bit-identical to
``nlc_space`` over the whole set, whatever the chunk size.  The binning
widens every bounding box by a relative slack larger than any rounding
in its arithmetic, so it can only add pairs, and the pairs it keeps
pass :meth:`~repro.index.circleset.CircleSet.rects_intersecting`'s
arithmetic verbatim, in either arm: each tile's halo, hence its row
window and candidate count, equals the full-set predicate's.  The halo
holds *every* disk intersecting its tile, in ascending row order, so a
search over the gathered halo classifies every quadrant of the tile
with the same disks, summing the same scores in the same order, as a
full-set run.  Seed covers translated onto halo positions by
:func:`_halo_seeds` prune exactly as they would over the full set:
their sizes and score sums stay the full covers', and the score-sum
exit reads the whole store's score signs
(:attr:`StreamPlan.scores_nonneg`), not the halo's.  The per-tile seed
bound is the tile root's ``m̂in`` over its halo, equal to a full-set
classification of that root — a tile no disk contains has an empty
containing set and a root ``m̂in`` of exactly 0.0, so only contained
tiles are classified.  Scores, regions and merged Phase I stats are
therefore identical to an unsharded solve's scores and regions, and
identical across the in-process and one-worker-pool schedules down to
the merged work counters (asserted by ``tests/engine``).  The one
count that follows the halo instead of the whole set is MaxFirst's
default iteration guard, ``400 * len(nlcs) + 200_000``, which each tile
search sizes by its halo rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.quadrant import MaxFirstStats
from repro.core.region import (FoundRegion, OptimalRegion,
                               compute_optimal_region, found_regions,
                               select_found)
from repro.core.result import MaxBRkNNResult
from repro.geometry.rect import Rect
from repro.index._ckernel import HaloScanArgs, load_halo_kernel
from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span
from repro.store.base import StoreHandle

__all__ = ["StreamPlan", "plan_streamed", "solve_streamed", "tile_grid"]

#: Deterministic work counters of the sharding layer itself: tiles run
#: and halo rows assigned, recorded in the parent process so every
#: execution mode counts identically.
_SHARD_TASKS = _obs_metrics.counter("shard_tasks")
_HALO_ASSIGNMENTS = _obs_metrics.counter("halo_assignments")

#: Default row-chunk size for the planning scans: 256 Ki rows map 12 MB
#: of SoA per window, and each window's views die before the next
#: attaches, so scan RSS stays O(chunk) whatever the store length.
_DEFAULT_CHUNK_ROWS = 262_144

#: Relative widening of a disk's bounding box before it is binned
#: against the cut lines.  An open-disk hit ``dx*dx + dy*dy < r*r``
#: implies the rounded gap ``dx`` is below ``r`` (rounding is
#: monotone), so a hit cell lies within ``r`` plus a few ulps of
#: ``|c| + r`` of the centre; 2**-40 is ~4000 ulps, so the slack can
#: only add pairs, never drop one.
_HALO_SLACK = 2.0 ** -40

#: Cap on the rows binned and on the (row, cell) pairs tested at once:
#: the numpy pass's two dozen int64/float64 temporaries per row or pair
#: then fit in a few MB of cache (measured fastest at 8-16 Ki on a 4
#: MB-L2 Xeon), whatever the chunk size or the number of cells a disk
#: spans.  The compiled scan takes this many rows per call.
_PAIR_BLOCK = 16_384


def _dyadic_cut_fraction(i: int, n: int) -> float:
    """Cut fraction for interior grid line ``i`` of ``n`` columns.

    Tile cuts must satisfy two constraints the obvious choices each
    violate:

    * **Stay in the single-process run's split-line family.**  MaxFirst
      center-splits recursively, so every split line of the one-process
      search sits at a dyadic fraction of the space.  A tile whose edges
      are dyadic fractions center-splits into dyadic fractions again —
      its internal geometry *is* a subtree geometry of the global run,
      so near-degenerate coincidence clusters tessellate exactly as
      cheaply as the single run handles them.  The previous golden-ratio
      offset broke this: every tile-internal line was foreign to the
      global run, and a cluster a foreign line sliced was tessellated to
      far finer depths (measured 1.4x aggregate Phase I overhead on
      fig11-uniform, concentrated at one interior coincidence point).

    * **Stay off the centre.**  Synthetic (and most real) workloads pile
      mass — and therefore circle-coincidence points — around the domain
      centre, and a degenerate point ON a tile edge can never be
      isolated by a point split (``split_at`` needs a strictly interior
      point), so quadrants along the edge tessellate to the resolution
      floor (measured ~9x Phase I overhead on fig11-normal with midpoint
      cuts).

    Both hold for the nearest *odd* multiple of ``1/m`` to ``i/n`` with
    ``m`` the smallest power of two ``>= 4n``: odd numerators exclude
    ``1/2`` (and keep neighbouring cuts distinct), and every cut remains
    an exact dyadic fraction.  Correctness never depends on placement —
    any partition merges to the identical result; only the work varies.
    """
    m = 16
    while m < 4 * n:
        m *= 2
    j = round(i * m / n)
    if j % 2 == 0:
        j += 1 if i * m >= j * n else -1
    return min(m - 1, max(1, j)) / m


def _grid_cuts(space: Rect, shards: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``nx + 1`` x cut lines and ``ny + 1`` y cut lines of the grid.

    Both arrays run from the space's low edge to its high edge and are
    non-decreasing (the cut fractions are, and rounding is monotone),
    which is what lets the halo pass bin against them by binary search
    (``searchsorted`` in :func:`_halo_pairs`).  Near-coincident
    coordinates can make neighbouring cuts equal; the zero-width cells
    between them are still cells.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    ny = max(1, int(math.sqrt(shards)))
    nx = math.ceil(shards / ny)
    xs = ([space.xmin]
          + [space.xmin + space.width * _dyadic_cut_fraction(i, nx)
             for i in range(1, nx)]
          + [space.xmax])
    ys = ([space.ymin]
          + [space.ymin + space.height * _dyadic_cut_fraction(i, ny)
             for i in range(1, ny)]
          + [space.ymax])
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


def tile_grid(space: Rect, shards: int) -> tuple[Rect, ...]:
    """Split ``space`` into at least ``shards`` tiles on a near-square grid.

    The grid is ``nx`` x ``ny`` with ``ny = floor(sqrt(shards))`` and
    ``nx = ceil(shards / ny)``, and *every* cell is emitted: 2 gives a
    2x1 split, 4 a 2x2, 9 a 3x3, while counts that do not factor into
    their grid round up (5 becomes a 3x2 grid of 6 tiles).  Dropping the
    surplus cells instead would leave part of the space uncovered, and
    regions living only there would be silently missed.  The tiles
    partition the space exactly (shared boundaries, no gaps); interior
    cut lines sit at off-centre dyadic fractions — see
    :func:`_dyadic_cut_fraction` for why both properties matter.  Cell
    ``iy * nx + ix`` spans cut lines ``ix, ix + 1`` and ``iy, iy + 1``
    of :func:`_grid_cuts`.
    """
    xs, ys = (cuts.tolist() for cuts in _grid_cuts(space, shards))
    return tuple(Rect(xs[ix], ys[iy], xs[ix + 1], ys[iy + 1])
                 for iy in range(len(ys) - 1)
                 for ix in range(len(xs) - 1))


def _bin_span(c: np.ndarray, r: np.ndarray,
              cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per disk, the half-open range of grid columns (or rows) that its
    extent along one axis, widened by :data:`_HALO_SLACK`, meets: from
    the first cell whose high cut reaches ``c - reach`` to the last
    whose low cut does not pass ``c + reach``."""
    reach = (np.abs(c) + r) * _HALO_SLACK + r
    return (np.searchsorted(cuts[1:], c - reach, side="left"),
            np.searchsorted(cuts[:-1], c + reach, side="right"))


def _halo_pairs(circles: CircleSet, xs: np.ndarray, ys: np.ndarray,
                graze_tol: float
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every (disk, grid cell) pair whose open disk meets the cell.

    Yields ``(rows, cells, contained)`` blocks of at most
    :data:`_PAIR_BLOCK` pairs (or one row's), rows ascending (cells
    ascending within a row) across the whole scan, which bins
    :data:`_PAIR_BLOCK` rows at a time.  Each disk's bounding box,
    widened by :data:`_HALO_SLACK`, is binned against the cut lines with
    ``searchsorted``; the candidate pairs then pass the arithmetic of
    :meth:`CircleSet.rects_intersecting` verbatim, so each cell's rows
    are exactly that predicate's.  ``contained`` flags the hit pairs
    whose disk contains the cell at ``graze_tol`` — the containment
    test of :class:`~repro.index.circleset.RectClassifier`, with
    ``r_out = r + graze_tol`` — so a cell with no flagged pair has an
    empty ``Q.C`` and a root ``m̂in`` of exactly 0.0.
    """
    nx = xs.shape[0] - 1
    for first in range(0, len(circles), _PAIR_BLOCK):
        block = slice(first, first + _PAIR_BLOCK)
        cx, cy, r = circles.cx[block], circles.cy[block], circles.r[block]
        col_lo, col_hi = _bin_span(cx, r, xs)
        row_lo, row_hi = _bin_span(cy, r, ys)
        width = np.maximum(col_hi - col_lo, 0)
        per_row = width * np.maximum(row_hi - row_lo, 0)
        ends = np.cumsum(per_row)
        start = 0
        while start < ends.shape[0]:
            # Rows [start, stop) hold at most _PAIR_BLOCK pairs, or are
            # one row.
            base = int(ends[start] - per_row[start])
            stop = max(start + 1, int(np.searchsorted(
                ends, base + _PAIR_BLOCK, side="right")))
            counts = per_row[start:stop]
            rows = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
            k = np.arange(int(ends[stop - 1]) - base, dtype=np.int64)
            k -= np.repeat(ends[start:stop] - counts - base, counts)
            w = width[rows]
            ix = col_lo[rows] + k % w
            iy = row_lo[rows] + k // w
            start = stop
            pcx, pcy, pr = cx[rows], cy[rows], r[rows]
            ax = xs[ix] - pcx
            bx = pcx - xs[ix + 1]
            ay = ys[iy] - pcy
            by = pcy - ys[iy + 1]
            # rects_intersecting's open-disk test, element for element:
            # the near gap per axis is max(lo - c, 0, c - hi).
            dx = np.maximum(ax, 0.0)
            np.maximum(dx, bx, out=dx)
            dy = np.maximum(ay, 0.0)
            np.maximum(dy, by, out=dy)
            hit = dx * dx + dy * dy < pr * pr
            # RectClassifier's containment test: the far gap per axis is
            # min(lo - c, c - hi), whose sign drops when squaring.
            fx = np.minimum(ax, bx, out=ax)
            fy = np.minimum(ay, by, out=ay)
            r_out = pr + graze_tol
            contained = fx * fx + fy * fy <= r_out * r_out
            rows += first
            yield rows[hit], (iy * nx + ix)[hit], contained[hit]


@dataclass(frozen=True)
class StreamPlan:
    """The tile layout of one sharded solve.

    ``tiles``, ``windows``, ``halos`` and ``candidate_counts`` are
    parallel.  Tile ``i``'s halo — the store rows whose disks meet it —
    lies in the row window ``windows[i] = (lo, hi)``, and ``halos[i]``
    is its packed bitmap over that window: bit ``j`` (byte ``j // 8``,
    little-endian within the byte) is set when row ``lo + j`` meets the
    tile, ``candidate_counts[i]`` bits in all, and rows ``lo`` and
    ``hi - 1`` are members.  :meth:`halo_rows` decodes it.  Tiles no
    disk reaches are dropped at planning time.  ``rows`` is the length
    of the store the plan was made over; a plan only fits a store of
    that length.
    """

    rows: int
    space: Rect
    resolution: float
    tiles: tuple[Rect, ...]
    windows: tuple[tuple[int, int], ...]
    halos: tuple[bytes, ...]
    candidate_counts: tuple[int, ...]
    #: Whether every score in the store is non-negative: a tile search
    #: reads it for its Theorem 3 score-sum exit in place of its own
    #: halo's flag, because its seed covers can name any store row.
    scores_nonneg: bool
    #: Proven global lower bound: the best tile-root ``m̂in`` (the score
    #: attained everywhere inside some whole tile).  Every tile seeds
    #: ``MaxMin`` with it, so losing tiles prune from their first pop.
    seed_bound: float

    @property
    def n_shards(self) -> int:
        return len(self.tiles)

    def halo_rows(self, i: int) -> np.ndarray:
        """Tile ``i``'s halo as ascending ``int64`` store rows."""
        return self.windows[i][0] + _halo_offsets(self.halos[i])


def _halo_offsets(halo: bytes) -> np.ndarray:
    """The set bits of a packed halo bitmap: ascending window offsets."""
    bits = np.unpackbits(np.frombuffer(halo, np.uint8), bitorder="little")
    # nonzero's bool path is several times faster than its uint8 one.
    return np.flatnonzero(bits.view(np.bool_))


def _fold_halo_bits(bits: dict[int, np.ndarray], lo_row: np.ndarray,
                    tiles: list[int], block: np.ndarray, first: int) -> None:
    """OR one row block's bytes into the tiles' scan bitmaps.

    ``block[i]`` holds tile ``tiles[i]``'s bits of the block: byte ``j``
    covers store rows ``8 * (first + j)`` onward.  While the scan runs,
    tile ``t``'s bitmap is aligned to whole bytes of store rows: byte
    ``i`` holds rows ``8 * (lo_row[t] // 8 + i)`` onward, and
    :func:`_packed_halo` re-bases it on ``lo_row[t]`` at the end.
    ``lo_row`` already counts the block's rows.
    """
    width = block.shape[1]
    for t, row in zip(tiles, block):
        # A tile first met inside this block starts past its first
        # byte; the bytes before its own start are zero.
        start = first - (int(lo_row[t]) >> 3)
        skip = max(0, -start)
        end = start + width
        buf = bits.get(t)
        if buf is None or buf.shape[0] < end:
            grown = np.zeros(max(end, 0 if buf is None
                                 else 2 * buf.shape[0]), dtype=np.uint8)
            if buf is not None:
                grown[:buf.shape[0]] = buf
            bits[t] = buf = grown
        buf[start + skip:end] |= row[skip:]


def _set_halo_bits(bits: dict[int, np.ndarray], lo_row: np.ndarray,
                   rows: np.ndarray, cells: np.ndarray,
                   per_cell: np.ndarray) -> None:
    """Set one pair block's (row, cell) bits in the tiles' bitmaps.

    The block's bits land first in a dense ``(cells present, block
    bytes)`` scratch — its rows are ascending and span at most
    :data:`_PAIR_BLOCK` rows, so the scratch stays small — and every
    (row, cell) pair is distinct, so adding the bit values sets them;
    :func:`_fold_halo_bits` then ORs the scratch into the bitmaps.
    """
    present = np.flatnonzero(per_cell)
    slot = np.zeros(per_cell.shape[0], dtype=np.int64)
    slot[present] = np.arange(present.shape[0], dtype=np.int64)
    first = int(rows[0]) >> 3
    width = (int(rows[-1]) >> 3) - first + 1
    block = np.zeros((present.shape[0], width), dtype=np.uint8)
    np.add.at(block.reshape(-1), slot[cells] * width + (rows >> 3) - first,
              np.left_shift(1, rows & 7).astype(np.uint8))
    _fold_halo_bits(bits, lo_row, present.tolist(), block, first)


class _HaloScan:
    """The halo pass's per-tile state, fed one store chunk at a time.

    ``lo_row`` and ``last_row`` are each tile's first and last halo row
    (the store length and -1 while it has none), ``counts`` its halo
    size, ``contained`` whether some disk contains it at ``graze_tol``,
    and ``bits`` its scan bitmap (:func:`_fold_halo_bits`).  With the
    compiled kernel each block of :data:`_PAIR_BLOCK` rows is one
    ``halo_scan`` call that bins, tests and updates in one pass and
    leaves the block's bits in a ``(tiles, block bytes)`` scratch;
    without it :func:`_halo_pairs` yields the same hits in numpy
    blocks.  Both arms fold bits through :func:`_fold_halo_bits`, and
    every field is an integer or a flag computed by the same IEEE
    operations, so they plan identically.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, graze_tol: float,
                 length: int) -> None:
        n_tiles = (xs.shape[0] - 1) * (ys.shape[0] - 1)
        self.xs, self.ys, self.graze_tol = xs, ys, graze_tol
        self.lo_row = np.full(n_tiles, length, dtype=np.int64)
        self.last_row = np.full(n_tiles, -1, dtype=np.int64)
        self.counts = np.zeros(n_tiles, dtype=np.int64)
        self.contained = np.zeros(n_tiles, dtype=np.bool_)
        self.bits: dict[int, np.ndarray] = {}
        self._kernel = load_halo_kernel()
        if self._kernel is None:
            return
        # A block that starts mid-byte spans one byte more than its
        # rows fill.
        stride = (_PAIR_BLOCK + 6) // 8 + 1
        self._block_counts = np.empty(n_tiles, dtype=np.int64)
        self._scratch = np.empty((n_tiles, stride), dtype=np.uint8)
        # The struct holds raw pointers: the arrays live on self.
        self._args = HaloScanArgs(
            xs.ctypes.data, ys.ctypes.data, xs.shape[0] - 1,
            ys.shape[0] - 1, _HALO_SLACK, graze_tol,
            *(a.ctypes.data for a in (
                self.lo_row, self.last_row, self.counts, self.contained,
                self._block_counts, self._scratch)), stride)

    def scan(self, chunk: CircleSet, lo: int) -> None:
        """Add the halo hits of ``chunk``, store rows ``lo`` onward."""
        if self._kernel is None:
            self._scan_numpy(chunk, lo)
            return
        for first in range(0, len(chunk), _PAIR_BLOCK):
            block = slice(first, first + _PAIR_BLOCK)
            cx, cy, r = (np.ascontiguousarray(column[block],
                                              dtype=np.float64)
                         for column in (chunk.cx, chunk.cy, chunk.r))
            n, base = cx.shape[0], lo + first
            if self._kernel(self._args, cx.ctypes.data, cy.ctypes.data,
                            r.ctypes.data, n, base) != 0:
                raise RuntimeError(
                    f"halo scan: {n} rows overflow the block scratch")
            present = np.flatnonzero(self._block_counts)
            width = ((base + n - 1) >> 3) - (base >> 3) + 1
            _fold_halo_bits(self.bits, self.lo_row, present.tolist(),
                            self._scratch[present, :width], base >> 3)

    def _scan_numpy(self, chunk: CircleSet, lo: int) -> None:
        for rows, cells, inside in _halo_pairs(chunk, self.xs, self.ys,
                                               self.graze_tol):
            if rows.shape[0] == 0:
                continue
            rows += lo
            np.minimum.at(self.lo_row, cells, rows)
            np.maximum.at(self.last_row, cells, rows)
            per_cell = np.bincount(cells, minlength=self.counts.shape[0])
            self.counts += per_cell
            self.contained[cells[inside]] = True
            _set_halo_bits(self.bits, self.lo_row, rows, cells, per_cell)


def _packed_halo(buf: np.ndarray, lo: int, hi: int) -> bytes:
    """A scan bitmap (aligned to whole bytes of rows) re-based so bit 0
    is row ``lo``, trimmed to the window ``[lo, hi)``."""
    span = buf[:((hi - 1) >> 3) - (lo >> 3) + 1]
    shift = lo & 7
    if shift:
        span = (span >> shift) | (np.append(span[1:], np.uint8(0))
                                  << (8 - shift))
    return span[:(hi - 1 - lo) // 8 + 1].tobytes()


def _halo_set(handle: StoreHandle, window: tuple[int, int],
              halo: bytes) -> tuple[CircleSet, np.ndarray]:
    """A tile's halo disks gathered out of its row window.

    Returns the compact set (centres, radii and scores of the halo rows,
    in ascending row order) and the store row of each of its disks.
    """
    lo, hi = window
    offsets = _halo_offsets(halo)
    # repro: store-lifecycle(uncached slice window; the gather copies
    # the halo rows, so its views die on return — the O(halo) memory
    # contract of the executor and the seed-bound pass)
    view = nlc_store.attach_slice(handle, lo, hi)
    return (CircleSet(view.cx[offsets], view.cy[offsets],
                      view.r[offsets], view.scores[offsets]),
            lo + offsets)


@dataclass
class TileOutput:
    """One tile's (or the unified frontier's) Phase I outcome.

    ``found`` lists the run's found regions in acceptance order, covers
    as sorted store rows.  ``obs_counters`` / ``obs_gauges`` are the
    run's observability registry deltas, captured under
    :meth:`MetricsRegistry.isolated` so they reach the parent registry
    only through :func:`merge`.
    """

    found: list[FoundRegion]
    max_min: float
    stats: dict
    obs_counters: dict = field(default_factory=dict)
    obs_gauges: dict = field(default_factory=dict)


def _chunk_bounds(length: int, chunk_rows: int) -> Iterator[tuple[int, int]]:
    for lo in range(0, length, chunk_rows):
        yield lo, min(lo + chunk_rows, length)


def _resolution(space: Rect, resolution_fraction: float) -> float:
    """The geometric resolution MaxFirst derives from ``space``."""
    return max(space.width, space.height) * resolution_fraction


def check_plan(plan: StreamPlan, rows: int, resolution_fraction: float,
               holder: str) -> None:
    """Raise ``ValueError`` unless ``plan`` fits a solve over ``rows``
    rows of ``holder`` at ``resolution_fraction``.

    Windows planned over a shorter store pass ``check_slice`` and would
    silently solve only a prefix of a longer one, and tiles search at
    ``plan.resolution``, so a plan made at another fraction would
    silently solve at that one instead of the solver's.
    """
    if plan.rows != rows:
        raise ValueError(f"plan was made over {plan.rows} rows, the "
                         f"{holder} has {rows}")
    resolution = _resolution(plan.space, resolution_fraction)
    if plan.resolution != resolution:
        raise ValueError(
            f"plan was made at resolution {plan.resolution!r}, the "
            f"solver's resolution_fraction {resolution_fraction!r} "
            f"gives {resolution!r}")


def plan_streamed(handle: StoreHandle, shards: int, *,
                  resolution_fraction: float | None = None,
                  chunk_rows: int = _DEFAULT_CHUNK_ROWS) -> StreamPlan:
    """Chunk-scan a published store into a :class:`StreamPlan`.

    Two O(chunk)-memory passes over the store: the first unions slice
    bounding boxes into the data space and checks the score signs; the
    second runs the grid-binned halo pass (:class:`_HaloScan`) over
    each chunk, which sets each tile's halo bits — and so its row
    window — at O(rows + halo pairs) and flags the tiles some disk
    contains.  The halo bitmaps are the plan's only O(windows) part,
    window/8 bytes per tile.  Only contained tiles can have a nonzero
    root ``m̂in``, so only they are classified, over their halos, for
    the Theorem 2 seed bound.  Every quantity is independent of
    ``chunk_rows`` (see the module docstring).  ``resolution_fraction``
    must be finite and non-negative, as :class:`MaxFirst` requires.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    if resolution_fraction is None:
        resolution_fraction = MaxFirst().resolution_fraction
    if not (math.isfinite(resolution_fraction)
            and resolution_fraction >= 0):
        raise ValueError("resolution_fraction must be finite and "
                         f"non-negative, got {resolution_fraction!r}")
    length = int(handle[2])
    if length == 0:
        raise ValueError("cannot plan over an empty NLC store")

    with span("stream/scan_bbox", rows=length):
        xmin = ymin = np.inf
        xmax = ymax = -np.inf
        scores_nonneg = True
        for lo, hi in _chunk_bounds(length, chunk_rows):
            # repro: store-lifecycle(memmap slice attaches are uncached
            # by design — the mapping dies with the views at the end of
            # this iteration, which is the O(chunk) RSS contract)
            chunk = nlc_store.attach_slice(handle, lo, hi)
            box = chunk.bounding_box()
            xmin, ymin = min(xmin, box.xmin), min(ymin, box.ymin)
            xmax, ymax = max(xmax, box.xmax), max(ymax, box.ymax)
            scores_nonneg = (scores_nonneg
                             and bool((chunk.scores >= 0.0).all()))
        # Unmap the last chunk inside the span that mapped it.
        del chunk
        box = Rect(xmin, ymin, xmax, ymax)
        # nlc_space's margin, verbatim, so the space matches bit-exactly.
        margin = max(box.width, box.height, 1.0) * 1e-6
        space = box.expanded(margin)

    # The GLOBAL space sizes the resolution/graze tolerance; a tile must
    # classify at it, or its Q.I/Q.C sets (hence score sums) diverge
    # from the single-process run.
    resolution = _resolution(space, resolution_fraction)
    xs, ys = _grid_cuts(space, shards)
    tiles = tile_grid(space, shards)
    n_tiles = len(tiles)

    with span("stream/scan_windows", rows=length, tiles=n_tiles):
        scan = _HaloScan(xs, ys, resolution, length)
        for lo, hi in _chunk_bounds(length, chunk_rows):
            # repro: store-lifecycle(uncached slice window; the views
            # die when `chunk` is rebound on the next iteration)
            chunk = nlc_store.attach_slice(handle, lo, hi)
            scan.scan(chunk, lo)
        # Unmap the last chunk inside the span that mapped it.
        del chunk

    # Nothing scores where no disk reaches.
    kept = np.flatnonzero(scan.counts).tolist()
    windows = tuple((int(scan.lo_row[t]), int(scan.last_row[t]) + 1)
                    for t in kept)
    halos = tuple(_packed_halo(scan.bits.pop(t), lo, hi)
                  for t, (lo, hi) in zip(kept, windows))
    kept_counts = tuple(int(scan.counts[t]) for t in kept)
    _HALO_ASSIGNMENTS.add(sum(kept_counts))

    # The root m̂in of a tile classified over its halo equals the
    # full-set classification: the halo holds every disk that
    # intersects the tile, and the containing subset sums in the same
    # ascending row order either way.  A tile no disk contains has an
    # empty containing set, so its root m̂in is the empty sum 0.0 and it
    # cannot raise the bound: it is not classified.
    seed_bound = 0.0
    roots = [(tiles[t], window, halo)
             for t, window, halo in zip(kept, windows, halos)
             if scan.contained[t]]
    with span("stream/seed_bound", tiles=len(roots)):
        for tile, window, halo in roots:
            nlcs, _ = _halo_set(handle, window, halo)
            root = nlcs.classify_rects([tile], graze_tol=resolution)[0]
            seed_bound = max(seed_bound, float(root[3]))

    return StreamPlan(rows=length, space=space, resolution=resolution,
                      tiles=tuple(tiles[t] for t in kept),
                      windows=windows, halos=halos,
                      candidate_counts=kept_counts,
                      scores_nonneg=scores_nonneg,
                      seed_bound=seed_bound)


def _halo_seeds(seeds: list[FoundRegion], rows: np.ndarray) -> tuple:
    """Translate store-row seed covers onto a tile's halo positions.

    ``rows`` are the halo's ascending store rows.  A member inside the
    halo becomes its position there; one outside keeps a distinct
    negative key entry, ``-1 - row``, so the dedupe key stays
    injective, while the third ``members`` element keeps just the
    maskable halo positions.  Cover sizes and score sums stay those of
    the full cover, so the Theorem 3 cardinality and score-sum early
    exits fire exactly as they would over the full set — which is what
    keeps the in-process and one-worker-pool schedules' merged counters
    bit-identical.
    """
    out = []
    for key, score, _rect in seeds:
        cover = np.array(key, dtype=np.int64)
        pos = np.searchsorted(rows, cover)
        inside = rows[np.minimum(pos, rows.shape[0] - 1)] == cover
        out.append((tuple(np.where(inside, pos, -1 - cover).tolist()),
                    score, tuple(pos[inside].tolist())))
    return tuple(out)


def run_tile(handle: StoreHandle, index: int, tile: Rect,
             window: tuple[int, int], halo: bytes, resolution: float,
             options: dict[str, Any], bound: Callable[[float], float],
             sync_interval: int, seeds: list[FoundRegion], *,
             scores_nonneg: bool) -> TileOutput:
    """Phase I over one tile, searched over just its halo.

    ``halo`` is the plan's bitmap over the row window ``window``; the
    halo rows are gathered out of that window into a compact set (every
    disk meeting the tile, in ascending row order), whose disks all
    seed the search's single root (``run_phase1(roots=...)``).  ``bound``
    is the Theorem 2 exchange (publish a local bound, read back the
    global best): it seeds ``MaxMin`` and is polled every
    ``sync_interval`` pops.  ``seeds`` holds the found regions of the
    tiles run before this one on the same worker; this tile's found
    regions, mapped back to store rows, join it.  ``scores_nonneg`` is
    the plan's whole-store sign flag.  Counters are captured under an
    isolated registry, so they ship in the output and reach the parent
    only via :func:`merge`.
    """
    lo, hi = window
    with _obs_metrics.REGISTRY.isolated() as box:
        with span(f"shard/tile{index}", rows=hi - lo):
            nlcs, rows = _halo_set(handle, window, halo)
            accepted, max_min, stats = MaxFirst(**options).run_phase1(
                nlcs, tile, resolution=resolution,
                initial_bound=bound(0.0), bound_sync=bound,
                sync_interval=sync_interval,
                seed_covers=_halo_seeds(seeds, rows),
                roots=[(tile, np.arange(len(nlcs), dtype=np.int64))],
                scores_nonneg=scores_nonneg)
            bound(max_min)
            found = found_regions(accepted, rows)
            seeds.extend(found)  # a cover listed twice seeds once
    return TileOutput(found=found, max_min=max_min, stats=stats.as_dict(),
                      obs_counters=dict(box["counters"]),
                      obs_gauges=dict(box["gauges"]))


class _SerialBound:
    """In-process best-bound cell with the worker sync() contract."""

    __slots__ = ("value",)

    def __init__(self, initial: float) -> None:
        self.value = float(initial)

    def sync(self, local: float) -> float:
        if local > self.value:
            self.value = local
        return self.value


def run_tiles(handle: StoreHandle, plan: StreamPlan,
              options: dict[str, Any],
              sync_interval: int) -> list[TileOutput]:
    """Run every planned tile in-process, one halo at a time.

    Tiles run in tile order, each seeded with the best bound and the
    accepted covers of the tiles before it — exactly the schedule a
    one-worker pool pops off its queue, which is why the two merge
    bit-identical work counters.
    """
    bound = _SerialBound(plan.seed_bound)
    seeds: list[FoundRegion] = []
    return [run_tile(handle, i, tile, window, halo, plan.resolution,
                     options, bound.sync, sync_interval, seeds,
                     scores_nonneg=plan.scores_nonneg)
            for i, (tile, window, halo) in enumerate(zip(
                plan.tiles, plan.windows, plan.halos))]


def merge(nlcs: CircleSet, outputs: list[TileOutput], tie_tol: float
          ) -> tuple[float, list[OptimalRegion], MaxFirstStats]:
    """Merge tile outputs: global best, deduped regions, summed stats.

    Mirrors :meth:`MaxFirst.build_regions` over ``nlcs``, the whole set
    the tiles' store rows index: the outputs' found regions, in output
    order then acceptance order, go through
    :func:`~repro.core.region.select_found` at the global best's tie
    floor, and each distinct winning cover grows once — so the emitted
    regions are bit-identical to a full-set Phase II.  The outputs'
    counters and gauges enter the parent registry here and nowhere
    else.
    """
    max_min = max((out.max_min for out in outputs), default=0.0)
    floor = max_min - tie_tol * max(1.0, abs(max_min))
    with span("stream/merge", tiles=len(outputs)):
        regions = [
            compute_optimal_region(rect, cover, nlcs, score=score)
            for cover, score, rect in select_found(
                [entry for out in outputs for entry in out.found], floor)
        ]
    regions.sort(key=lambda r: -r.score)
    merged: dict[str, int] = {}
    for out in outputs:
        for name, value in out.stats.items():
            if name == "max_depth":
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
        _obs_metrics.REGISTRY.merge_counts(out.obs_counters)
        _obs_metrics.REGISTRY.merge_gauges_max(out.obs_gauges)
    return max_min, regions, MaxFirstStats(**merged)


def solve_streamed(handle: StoreHandle, *, shards: int = 2,
                   sync_interval: int = 1024,
                   chunk_rows: int = _DEFAULT_CHUNK_ROWS,
                   plan: StreamPlan | None = None,
                   **maxfirst_options: Any) -> MaxBRkNNResult:
    """Tile-at-a-time MaxFirst over a published store, O(window) memory.

    Solves the instance whose NLC set ``handle`` points at — published
    with :func:`repro.store.publish` or streamed in through
    :func:`repro.core.nlc.build_nlcs_streaming` — searching one tile's
    halo at a time, gathered out of its row window.  This is
    ``ShardedMaxFirst(shards=shards, mode="tiles")`` over the same
    rows; pass a precomputed ``plan`` to amortise the planning scans
    across repeated solves.

    ``maxfirst_options`` forward to the per-tile :class:`MaxFirst`
    (``top_t`` must stay 1, as for every sharded execution).
    """
    if maxfirst_options.get("top_t", 1) != 1:
        raise ValueError("streamed execution requires top_t == 1")
    solver = MaxFirst(**maxfirst_options)
    t0 = time.perf_counter()
    if plan is None:
        plan = plan_streamed(handle, shards,
                             resolution_fraction=solver.resolution_fraction,
                             chunk_rows=chunk_rows)
    else:
        check_plan(plan, int(handle[2]), solver.resolution_fraction,
                   "store")
    t1 = time.perf_counter()
    _SHARD_TASKS.add(plan.n_shards)
    outputs = run_tiles(handle, plan, maxfirst_options, sync_interval)
    t2 = time.perf_counter()
    nlcs = nlc_store.attach(handle)
    max_min, regions, merged = merge(nlcs, outputs, solver.tie_tol)
    t3 = time.perf_counter()
    return MaxBRkNNResult(
        score=max_min, regions=tuple(regions), nlcs=nlcs,
        space=plan.space, stats=merged,
        timings={"plan": t1 - t0, "phase1": t2 - t1, "phase2": t3 - t2})
