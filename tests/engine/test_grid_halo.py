"""The planner's grid-binned halo pass is the full-set predicate, exactly.

:func:`plan_streamed`'s halo pass (``outofcore._halo_pairs``) bins each
disk's bounding box against the tile grid's cut lines and tests only
the (row, cell) pairs the binning yields.  These properties pin that
shortcut to its reference — ``rects_intersecting`` over every tile,
plus a full-set ``classify_rects`` of the kept tile roots — on random
and degenerate inputs: cut lines a few ulps apart, disks tangent to cut
lines, zero radii, disks larger than the space, and a tile that a disk
contains only within the graze tolerance.
"""

import dataclasses

import numpy as np
import pytest

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import (striped_uniform_chunks,
                                      synthetic_instance, uniform_points)
from repro.engine import ShardedMaxFirst, outofcore
from repro.engine.outofcore import (StreamPlan, plan_streamed,
                                    solve_streamed, tile_grid)
from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet
from repro.obs.metrics import REGISTRY

SHARDS = (1, 2, 5, 9, 64)
BACKENDS = ("ram", "memmap")


def _circles(cx, cy, r, seed=0):
    cx = np.asarray(cx, dtype=np.float64)
    n = cx.shape[0]
    scores = np.random.default_rng(seed).uniform(0.5, 1.5, n)
    return CircleSet(cx, np.asarray(cy, dtype=np.float64),
                     np.asarray(r, dtype=np.float64), scores,
                     owners=np.arange(n, dtype=np.int64),
                     levels=np.ones(n, dtype=np.int64))


def _random(seed, n=300):
    rng = np.random.default_rng([seed, 0])
    return _circles(rng.uniform(0, 100, n), rng.uniform(0, 100, n),
                    rng.exponential(6, n), seed)


def _far_offset(seed, n=200):
    """Coordinates near 1e9 spread over 1e-6: the space is a few dozen
    ulps wide, so neighbouring cut lines sit a few ulps apart or
    coincide."""
    rng = np.random.default_rng([seed, 1])
    return _circles(1e9 + rng.uniform(0, 1e-6, n),
                    1e9 + rng.uniform(0, 1e-6, n),
                    rng.uniform(0, 1e-6, n), seed)


def _zero_radii(seed, n=200):
    rng = np.random.default_rng([seed, 2])
    r = rng.uniform(0, 0.3, n)
    r[::2] = 0.0
    return _circles(rng.uniform(0, 1, n), rng.uniform(0, 1, n), r, seed)


def _huge(seed, n=150):
    """Every disk is larger than the space its centres span."""
    rng = np.random.default_rng([seed, 3])
    return _circles(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                    rng.uniform(3, 8, n), seed)


def _graze_contained(seed):
    """One disk contains the centre tile of a 3x3 grid only within the
    graze tolerance: its far corners lie half a resolution outside it.
    Two small disks in opposite corners fix the space, which the big
    disk stays inside."""
    frame = _circles([0.0, 1.0], [0.0, 1.0], [0.01, 0.01], seed)
    space = nlc_space(frame)
    resolution = (max(space.width, space.height)
                  * MaxFirst().resolution_fraction)
    tile = tile_grid(space, 9)[4]
    centre = tile.center
    radius = (float(np.hypot(tile.width / 2, tile.height / 2))
              - resolution / 2)
    return _circles([0.0, 1.0, centre.x], [0.0, 1.0, centre.y],
                    [0.01, 0.01, radius], seed)


def _nlcs(seed, k=2):
    customers, sites = synthetic_instance(200, 8, "uniform", seed=seed)
    return build_nlcs(MaxBRkNNProblem(customers, sites, k=k))


INSTANCES = {
    "random": _random,
    "far-offset": _far_offset,
    "zero-radii": _zero_radii,
    "huge-disks": _huge,
    "graze-contained": _graze_contained,
    "nlcs": _nlcs,
}


def _tangent(space, shards):
    """Disks on dyadic coordinates touching the grid's cut lines: from
    either side, through the corners, centred on them, and of radius
    zero on them.  ``space`` must have dyadic edges, so the cuts are
    exact dyadic numbers."""
    cx, cy, r = [], [], []
    for tile in tile_grid(space, shards):
        for x in (tile.xmin, tile.xmax):
            for y in (tile.ymin, tile.ymax):
                for rad in (0.0, 0.0625, 0.125):
                    # Centred on the corner, then tangent to the cut
                    # from the left/right and from below/above.
                    cx += [x, x - rad, x + rad, x, x]
                    cy += [y, y, y, y - rad, y + rad]
                    r += [rad] * 5
    return _circles(cx, cy, r)


def _grid_halos(circles, space, shards):
    """Per-tile halo rows of ``tile_grid(space, shards)`` from
    ``_halo_pairs``, grouped by cell with each cell's rows ascending."""
    xs, ys = outofcore._grid_cuts(space, shards)
    n_cells = (xs.shape[0] - 1) * (ys.shape[0] - 1)
    blocks = [(rows, cells)
              for rows, cells, _ in outofcore._halo_pairs(circles, xs, ys,
                                                          0.0)]
    if not blocks:
        return [np.zeros(0, dtype=np.int64) for _ in range(n_cells)]
    rows = np.concatenate([rows for rows, _ in blocks])
    cells = np.concatenate([cells for _, cells in blocks])
    # A stable sort by cell keeps each cell's rows ascending.
    order = np.argsort(cells, kind="stable")
    bounds = np.cumsum(np.bincount(cells, minlength=n_cells))[:-1]
    return np.split(rows[order], bounds)


def _assert_halos_equal(circles, space, shards):
    got = _grid_halos(circles, space, shards)
    want = circles.rects_intersecting(tile_grid(space, shards))
    assert len(got) == len(want)
    for cell, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.int64, cell
        np.testing.assert_array_equal(g, w, err_msg=f"cell {cell}")


@pytest.fixture(params=["default", "tiny"])
def pair_block(request, monkeypatch):
    """The default pair cap, and a 3-pair cap that splits every row
    block and puts one disk's cells in several pair blocks."""
    if request.param == "tiny":
        monkeypatch.setattr(outofcore, "_PAIR_BLOCK", 3)
    return request.param


class TestGridHalosMatchPredicate:
    @pytest.mark.parametrize("shards", SHARDS)
    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_rects_intersecting(self, kind, seed, shards,
                                       pair_block):
        circles = INSTANCES[kind](seed)
        _assert_halos_equal(circles, nlc_space(circles), shards)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_tangent_to_cut_lines(self, shards, pair_block):
        space = Rect(0.0, 0.0, 1.0, 1.0)
        _assert_halos_equal(_tangent(space, shards), space, shards)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_coincident_cut_lines(self, shards):
        """A space two ulps wide: most cuts coincide, and the cells
        between equal cuts have zero width."""
        x0 = 1e9
        x1 = np.nextafter(np.nextafter(x0, np.inf), np.inf)
        space = Rect(x0, x0, float(x1), float(x1))
        rng = np.random.default_rng(5)
        n = 60
        circles = _circles(x0 + rng.integers(0, 3, n) * (x1 - x0) / 2,
                           x0 + rng.integers(0, 3, n) * (x1 - x0) / 2,
                           rng.choice([0.0, 1e-7, 3e-7], n))
        _assert_halos_equal(circles, space, shards)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_disks_outside_the_space(self, shards):
        """The binning needs no containment: disks partly or wholly
        outside the space get exactly the predicate's cells."""
        rng = np.random.default_rng(9)
        n = 200
        circles = _circles(rng.uniform(-2, 3, n), rng.uniform(-2, 3, n),
                           rng.uniform(0, 1.5, n))
        _assert_halos_equal(circles, Rect(0.0, 0.0, 1.0, 1.0), shards)


def _packed(cand):
    """``cand``'s bitmap over its row window, bit ``j`` for row
    ``cand[0] + j``, little-endian within each byte."""
    lo = int(cand[0])
    mask = np.zeros(int(cand[-1]) + 1 - lo, dtype=bool)
    mask[cand - lo] = True
    return np.packbits(mask, bitorder="little").tobytes()


def _reference_plan(nlcs, shards):
    """The plan from full-set predicates: halos by ``rects_intersecting``
    over every tile, seed bound by ``classify_rects`` of the kept
    roots."""
    space = nlc_space(nlcs)
    resolution = (max(space.width, space.height)
                  * MaxFirst().resolution_fraction)
    grid = tile_grid(space, shards)
    kept = [(tile, cand) for tile, cand
            in zip(grid, nlcs.rects_intersecting(grid)) if cand.shape[0]]
    roots = nlcs.classify_rects([tile for tile, _ in kept],
                                graze_tol=resolution)
    return StreamPlan(
        rows=len(nlcs), space=space, resolution=resolution,
        tiles=tuple(tile for tile, _ in kept),
        windows=tuple((int(cand[0]), int(cand[-1]) + 1)
                      for _, cand in kept),
        halos=tuple(_packed(cand) for _, cand in kept),
        candidate_counts=tuple(int(cand.shape[0]) for _, cand in kept),
        scores_nonneg=bool((nlcs.scores >= 0.0).all()),
        seed_bound=max([0.0] + [float(root[3]) for root in roots]))


@pytest.fixture()
def published():
    """Publish NLC sets for one test; every store closes afterwards."""
    stores = []

    def _publish(nlcs, backend):
        owner = nlc_store.publish(nlcs, backend)
        stores.append(owner)
        return owner

    yield _publish
    nlc_store.detach()
    for owner in stores:
        owner.close()


class TestPlanMatchesReference:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_rows", [1, 17, None])
    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_field_for_field(self, kind, chunk_rows, backend, published):
        nlcs = INSTANCES[kind](7)
        owner = published(nlcs, backend)
        for shards in (2, 9, 64):
            options = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
            plan = plan_streamed(owner.handle, shards, **options)
            want = _reference_plan(nlcs, shards)
            for f in dataclasses.fields(StreamPlan):
                if f.name != "halos":
                    assert getattr(plan, f.name) == getattr(want, f.name), (
                        f"{kind} shards={shards}: {f.name}")
                    continue
                assert len(plan.halos) == len(want.halos)
                for i in range(want.n_shards):
                    np.testing.assert_array_equal(
                        plan.halo_rows(i), want.halo_rows(i),
                        err_msg=f"{kind} shards={shards}: halo {i}")


class TestSeedBoundSkipsUncontainedTiles:
    @staticmethod
    def _batches_and_contained(nlcs, shards, published):
        owner = published(nlcs, "ram")
        before = REGISTRY.snapshot()
        plan = plan_streamed(owner.handle, shards)
        batches = REGISTRY.delta_since(before).get("kernel_batches", 0)
        roots = nlcs.classify_rects(list(plan.tiles),
                                    graze_tol=plan.resolution)
        contained = sum(1 for root in roots if root[1].any())
        return batches, contained

    def test_striped_instance_classifies_no_tile(self, published):
        """The ``scale-stream`` shape — x-sorted strips, many uniform
        sites, 64 tiles: no disk contains a tile, so planning runs no
        classification at all."""
        customers = np.concatenate(list(striped_uniform_chunks(
            20_000, 64, seed=3)))
        sites = uniform_points(256, np.random.default_rng([7, 0]))
        nlcs = build_nlcs(MaxBRkNNProblem(customers, sites, k=1))
        batches, contained = self._batches_and_contained(nlcs, 64,
                                                         published)
        assert contained == 0
        assert batches == 0

    def test_large_disks_classify_exactly_the_contained_tiles(
            self, published):
        customers, sites = synthetic_instance(300, 3, "uniform", seed=4)
        nlcs = build_nlcs(MaxBRkNNProblem(customers, sites, k=1))
        batches, contained = self._batches_and_contained(nlcs, 16,
                                                         published)
        assert contained > 0
        assert batches == contained

    def test_tile_contained_within_the_graze_tolerance_is_classified(
            self, published):
        nlcs = _graze_contained(0)
        batches, contained = self._batches_and_contained(nlcs, 9,
                                                         published)
        assert contained == 1
        assert batches == 1
        plan = plan_streamed(published(nlcs, "ram").handle, 9)
        assert plan.seed_bound == nlcs.scores[2]


class TestStalePlan:
    def test_plan_over_a_shorter_store_rejected(self, published):
        """A plan's windows fit a longer store too, so without the row
        check the solve would cover only the planned prefix."""
        nlcs = _nlcs(3, k=1)
        doubled = CircleSet(*(np.concatenate([a, a]) for a in (
            nlcs.cx, nlcs.cy, nlcs.r, nlcs.scores)),
            owners=np.concatenate([nlcs.owners, nlcs.owners]),
            levels=np.concatenate([nlcs.levels, nlcs.levels]))
        small = published(nlcs, "memmap")
        large = published(doubled, "memmap")
        plan = plan_streamed(small.handle, 4)
        assert plan.rows == len(nlcs)
        with pytest.raises(ValueError, match="plan was made over"):
            solve_streamed(large.handle, plan=plan)
        fresh = solve_streamed(large.handle, shards=4)
        assert fresh.score > solve_streamed(small.handle, plan=plan).score

    def test_plan_at_another_resolution_rejected(self, published):
        """Tiles search at ``plan.resolution``: without the check a plan
        made at the default fraction solved a ``1e-2`` request at the
        default one (57.5 instead of 55.5 on this instance)."""
        customers, sites = synthetic_instance(400, 12, "uniform", seed=3)
        nlcs = build_nlcs(MaxBRkNNProblem(customers, sites, k=2))
        handle = published(nlcs, "ram").handle
        plan = plan_streamed(handle, 4)
        coarse = plan_streamed(handle, 4, resolution_fraction=1e-2)
        want = solve_streamed(handle, shards=4, resolution_fraction=1e-2)
        with pytest.raises(ValueError, match=(
                f"resolution {plan.resolution!r}.*resolution_fraction "
                f"0.01 gives {coarse.resolution!r}")):
            solve_streamed(handle, plan=plan, resolution_fraction=1e-2)
        with pytest.raises(ValueError, match="resolution_fraction 0.01"):
            ShardedMaxFirst(shards=4, mode="tiles",
                            resolution_fraction=1e-2).execute(nlcs, plan)
        with pytest.raises(ValueError, match="resolution_fraction 1e-09"):
            ShardedMaxFirst(shards=4, mode="tiles").execute(nlcs, coarse)
        assert solve_streamed(handle, plan=coarse,
                              resolution_fraction=1e-2).score == want.score

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"),
                                          -1e-9])
    def test_non_finite_or_negative_fraction_rejected(self, fraction,
                                                      published):
        """A NaN fraction used to plan, and solving with that plan
        returned 0.0."""
        handle = published(_nlcs(3), "ram").handle
        with pytest.raises(ValueError, match="resolution_fraction must be"):
            plan_streamed(handle, 4, resolution_fraction=fraction)
