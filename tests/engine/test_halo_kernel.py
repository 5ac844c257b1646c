"""The compiled halo scan plans exactly what the numpy pass plans.

:func:`plan_streamed` runs its halo pass in the compiled ``halo_scan``
kernel (``index/_quadkernel.c``) one block of rows per call, and falls
back to the numpy pass :func:`outofcore._halo_pairs` without it.  These
tests pin the kernel to that pass: whole plans field for field, with
the loader patched to ``None`` as the reference, and each tile's rows,
count and contained flag after one scan over explicit cut lines —
including the hand-built spaces of ``test_grid_halo.py`` (disks tangent
to cut lines, cuts a few ulps apart, disks outside the space) and
random sets.  The numpy arm has no compiled kernel, so these tests skip
there, like ``TestQuadSplitKernel``.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.synthetic import striped_uniform_chunks, uniform_points
from repro.engine import outofcore
from repro.engine.outofcore import StreamPlan, plan_streamed
from repro.geometry.rect import Rect
from repro.index._ckernel import load_halo_kernel
from tests.engine.test_grid_halo import INSTANCES, _circles, _tangent

pytestmark = pytest.mark.skipif(load_halo_kernel() is None,
                                reason="compiled halo kernel unavailable")

SHARDS = (1, 2, 5, 9, 64, 256)


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


def _numpy_plan(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(outofcore, "load_halo_kernel", lambda: None)
        return plan_streamed(*args, **kwargs)


def _assert_plans_equal(got, want, label):
    for f in dataclasses.fields(StreamPlan):
        assert getattr(got, f.name) == getattr(want, f.name), (
            f"{label}: {f.name}")
    for i in range(want.n_shards):
        np.testing.assert_array_equal(got.halo_rows(i), want.halo_rows(i),
                                      err_msg=f"{label}: halo {i}")


class TestPlanMatchesNumpyPlan:
    @pytest.mark.parametrize("pair_block", [None, 3])
    @pytest.mark.parametrize("chunk_rows", [1, 17, None])
    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_field_for_field(self, kind, chunk_rows, pair_block, published,
                             monkeypatch):
        """A 3-row block splits the scratch bytes, and 1- and 17-row
        chunks start blocks in the middle of a byte."""
        if pair_block is not None:
            monkeypatch.setattr(outofcore, "_PAIR_BLOCK", pair_block)
        nlcs = INSTANCES[kind](7)
        owner = published(nlcs, "ram")
        options = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
        for shards in SHARDS:
            got = plan_streamed(owner.handle, shards, **options)
            want = _numpy_plan(monkeypatch, owner.handle, shards, **options)
            _assert_plans_equal(got, want, f"{kind} shards={shards}")

    @pytest.mark.parametrize("chunk_rows", [65_541, None])
    def test_striped_scale_stream_shape(self, chunk_rows, published,
                                        monkeypatch):
        """``scale-stream``'s shape — x-sorted strips, uniform sites, 64
        tiles — at 200k rows: many blocks, each meeting a few tiles."""
        customers = np.concatenate(list(striped_uniform_chunks(
            200_000, 64, seed=3)))
        sites = uniform_points(1024, np.random.default_rng([7, 0]))
        nlcs = build_nlcs(MaxBRkNNProblem(customers, sites, k=1))
        owner = published(nlcs, "memmap")
        options = {} if chunk_rows is None else {"chunk_rows": chunk_rows}
        got = plan_streamed(owner.handle, 64, **options)
        want = _numpy_plan(monkeypatch, owner.handle, 64, **options)
        assert got.n_shards == 64
        _assert_plans_equal(got, want, "striped")


def _numpy_tiles(circles, xs, ys, graze_tol, lo):
    """Per tile ``(rows, count, contained)`` from ``_halo_pairs``."""
    n_cells = (xs.shape[0] - 1) * (ys.shape[0] - 1)
    rows_of = [[] for _ in range(n_cells)]
    contained = [False] * n_cells
    for rows, cells, inside in outofcore._halo_pairs(circles, xs, ys,
                                                     graze_tol):
        for row, cell, flag in zip(rows.tolist(), cells.tolist(),
                                   inside.tolist()):
            rows_of[cell].append(lo + row)
            contained[cell] = contained[cell] or flag
    return [(sorted(rows), len(rows), flag)
            for rows, flag in zip(rows_of, contained)]


def _compiled_tiles(circles, xs, ys, graze_tol, lo):
    """Per tile ``(rows, count, contained)`` from one compiled scan of
    ``circles`` as store rows ``lo`` onward, decoded from its state."""
    length = lo + len(circles)
    scan = outofcore._HaloScan(xs, ys, graze_tol, length)
    assert scan._kernel is not None
    scan.scan(circles, lo)
    out = []
    for t in range(scan.counts.shape[0]):
        first, last = int(scan.lo_row[t]), int(scan.last_row[t])
        if scan.counts[t] == 0:
            assert (first, last, t in scan.bits) == (length, -1, False)
            out.append(([], 0, bool(scan.contained[t])))
            continue
        halo = outofcore._packed_halo(scan.bits[t], first, last + 1)
        rows = (first + outofcore._halo_offsets(halo)).tolist()
        assert (rows[0], rows[-1]) == (first, last), t
        out.append((rows, int(scan.counts[t]), bool(scan.contained[t])))
    return out


def _assert_tiles_equal(circles, space, shards, graze_tol, lo=0):
    xs, ys = outofcore._grid_cuts(space, shards)
    got = _compiled_tiles(circles, xs, ys, graze_tol, lo)
    want = _numpy_tiles(circles, xs, ys, graze_tol, lo)
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"tile {t}"


def _coincident(n=60):
    """A space two ulps wide: most cuts coincide, and the cells between
    equal cuts have zero width."""
    x0 = 1e9
    x1 = float(np.nextafter(np.nextafter(x0, np.inf), np.inf))
    rng = np.random.default_rng(5)
    circles = _circles(x0 + rng.integers(0, 3, n) * (x1 - x0) / 2,
                       x0 + rng.integers(0, 3, n) * (x1 - x0) / 2,
                       rng.choice([0.0, 1e-7, 3e-7], n))
    return circles, Rect(x0, x0, x1, x1)


def _outside(n=200):
    """Disks partly or wholly outside the space."""
    rng = np.random.default_rng(9)
    circles = _circles(rng.uniform(-2, 3, n), rng.uniform(-2, 3, n),
                       rng.uniform(0, 1.5, n))
    return circles, Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture(params=["default", "tiny"])
def pair_block(request, monkeypatch):
    """The default block, and a 3-row block that splits scratch bytes."""
    if request.param == "tiny":
        monkeypatch.setattr(outofcore, "_PAIR_BLOCK", 3)
    return request.param


class TestBlockMatchesHaloPairs:
    """One scan's per-tile rows, counts and contained flags against the
    numpy pass's pairs, on explicit cut lines."""

    @pytest.mark.parametrize("lo", [0, 5])
    @pytest.mark.parametrize("shards", SHARDS)
    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_instances(self, kind, shards, lo, pair_block):
        circles = INSTANCES[kind](3)
        space = nlc_space(circles)
        resolution = (max(space.width, space.height)
                      * MaxFirst().resolution_fraction)
        for graze_tol in (0.0, resolution):
            _assert_tiles_equal(circles, space, shards, graze_tol, lo)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_tangent_to_cut_lines(self, shards, pair_block):
        space = Rect(0.0, 0.0, 1.0, 1.0)
        for graze_tol in (0.0, 0.0625):
            _assert_tiles_equal(_tangent(space, shards), space, shards,
                                graze_tol, lo=3)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_coincident_cut_lines(self, shards, pair_block):
        circles, space = _coincident()
        for graze_tol in (0.0, 1e-7):
            _assert_tiles_equal(circles, space, shards, graze_tol)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_disks_outside_the_space(self, shards, pair_block):
        circles, space = _outside()
        for graze_tol in (0.0, 0.25):
            _assert_tiles_equal(circles, space, shards, graze_tol, lo=7)

    @pytest.mark.parametrize("radius, graze_tol", [(5.0, 0.0), (4.5, 0.5),
                                                   (4.0, 1.0)])
    @pytest.mark.parametrize("corner", [(0.0, 0.0), (3.0, 4.0)])
    def test_containment_on_the_graze_circle(self, corner, radius,
                                             graze_tol):
        """A 3x4 cell whose far corner lies exactly on the circle of
        radius ``r + graze_tol`` = 5 about the disk's centre: contained
        (``<=``), on both arms."""
        space = Rect(0.0, 0.0, 3.0, 4.0)
        circles = _circles([corner[0], 1.5], [corner[1], 2.0],
                           [radius, 0.5])
        xs, ys = outofcore._grid_cuts(space, 1)
        assert _numpy_tiles(circles, xs, ys, graze_tol, 0)[0][2]
        _assert_tiles_equal(circles, space, 1, graze_tol)

    @pytest.mark.parametrize("shards", [1, 9, 64])
    def test_non_finite_disks(self, shards):
        """An infinite or NaN centre or radius can bin differently from
        ``searchsorted``, which sorts NaN last, but no pair of it hits
        or contains in either arm; an infinite radius with a finite
        centre meets every cell in both."""
        inf, nan = float("inf"), float("nan")
        cx = [inf, -inf, nan, 0.5, 0.5, inf, 0.25]
        cy = [0.5, 0.5, 0.5, nan, 0.5, inf, 0.75]
        r = [0.1, 0.1, 0.1, 0.1, inf, inf, nan]
        space = Rect(0.0, 0.0, 1.0, 1.0)
        circles = _circles(cx, cy, r)
        xs, ys = outofcore._grid_cuts(space, shards)
        with np.errstate(invalid="ignore", over="ignore"):
            assert all(rows == [4] for rows, _, _ in _numpy_tiles(
                circles, xs, ys, 0.0, 0))
            for graze_tol in (0.0, 0.05):
                _assert_tiles_equal(circles, space, shards, graze_tol)


_radii = st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(1.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(disks=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5),
                                _radii), min_size=1, max_size=40),
       shards=st.integers(1, 100),
       graze_tol=st.sampled_from([0.0, 1e-9, 0.05]),
       lo=st.integers(0, 20),
       pair_block=st.sampled_from([3, 16_384]))
def test_random_sets_match_halo_pairs(disks, shards, graze_tol, lo,
                                      pair_block):
    """Random centres, radii zero or larger than the space, any grid."""
    cx, cy, r = (np.array(column, dtype=np.float64)
                 for column in zip(*disks))
    circles = _circles(cx, cy, r)
    with mock.patch.object(outofcore, "_PAIR_BLOCK", pair_block):
        _assert_tiles_equal(circles, nlc_space(circles), shards, graze_tol,
                            lo)
