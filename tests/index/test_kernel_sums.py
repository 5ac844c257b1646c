"""The compiled quad split's score sums against numpy's reduction.

``classify_quad_split`` (``_quadkernel.c``) sums each child's
``m̂ax = sum(score, Q.I)`` and ``m̂in = sum(score, Q.C)`` itself, with a
port of numpy's pairwise summation.  Phase I's split order, prunes and
stats hang off those floats, so every sum must equal ``np.add.reduce``
of the same compacted score run bit for bit — signed zeros included —
at every run length the pairwise recursion treats differently: the
running sum below 8 terms, the eight-lane block up to 128, and the
recursive halving above it.  The numpy arm has no compiled kernel, so
these tests skip there, like ``TestQuadSplitKernel``.
"""

import struct

import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.index.circleset import CircleSet

RUN_LENGTHS = [*range(0, 10), 127, 128, 129, 255, 256, 257, 1000, 1001,
               1003, 40_000, 40_011]


def bits(x: float) -> bytes:
    """The IEEE-754 encoding: unlike ``==``, tells -0.0 from +0.0."""
    return struct.pack("<d", x)


def mixed_scores(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixed signs over magnitudes 1e-3 to 1e6."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 6.0, n)


def nested_set(scores: np.ndarray, contains: np.ndarray) -> CircleSet:
    """Disks centred on the unit square's centre: a radius-10 disk
    contains all four children of the centre split, a radius-0.1 disk
    meets each child's interior and contains none.  Every child's
    ``Q.I`` run is then all of ``scores`` and its ``Q.C`` run the
    ``contains`` subset, both in candidate order."""
    n = scores.shape[0]
    return CircleSet(np.full(n, 0.5), np.full(n, 0.5),
                     np.where(contains, 10.0, 0.1), scores)


def split(circles: CircleSet, candidates: np.ndarray,
          px: float = 0.5, py: float = 0.5,
          rect: Rect = Rect(0.0, 0.0, 1.0, 1.0)):
    results = circles.rect_classifier(0.0).quad_split(
        rect.xmin, rect.ymin, rect.xmax, rect.ymax, px, py, candidates)
    if results is None:
        pytest.skip("compiled quad kernel unavailable")
    return results


def assert_sums_reduce(circles: CircleSet, results) -> None:
    """Each child's sums are np.add.reduce of its own compacted runs."""
    for idx, mask, max_hat, min_hat in results:
        run = circles.scores[idx]
        assert bits(max_hat) == bits(float(np.add.reduce(run)))
        assert bits(min_hat) == bits(float(np.add.reduce(run[mask])))


class TestRunLengths:
    @pytest.mark.parametrize("n", RUN_LENGTHS)
    def test_mixed_runs(self, n):
        rng = np.random.default_rng(n)
        scores = mixed_scores(rng, n)
        circles = nested_set(scores, rng.random(n) < 0.5)
        results = split(circles, np.arange(n, dtype=np.int64))
        assert len(results) == 4
        assert_sums_reduce(circles, results)
        for idx, _, max_hat, _ in results:
            assert idx.shape == (n,)
            assert bits(max_hat) == bits(float(np.add.reduce(scores)))

    @pytest.mark.parametrize("n", RUN_LENGTHS)
    def test_runs_of_one_family(self, n):
        # Q.C equal to Q.I, then Q.C empty under a full Q.I.
        scores = mixed_scores(np.random.default_rng(n + 7), n)
        candidates = np.arange(n, dtype=np.int64)
        for contains in (np.ones(n, dtype=bool), np.zeros(n, dtype=bool)):
            circles = nested_set(scores, contains)
            assert_sums_reduce(circles, split(circles, candidates))

    @pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 1000, 40_000])
    def test_negative_zero_runs(self, n):
        # numpy's reduce starts from +0.0, so a run of -0.0 sums to +0.0.
        candidates = np.arange(n, dtype=np.int64)
        circles = nested_set(np.full(n, -0.0), np.ones(n, dtype=bool))
        for _, _, max_hat, min_hat in split(circles, candidates):
            assert bits(max_hat) == bits(0.0)
            assert bits(min_hat) == bits(0.0)
        signs = np.where(np.random.default_rng(n).random(n) < 0.5, -0.0, 0.0)
        circles = nested_set(signs, np.ones(n, dtype=bool))
        assert_sums_reduce(circles, split(circles, candidates))

    def test_candidate_subset_order(self):
        # The runs follow the candidate array, not the disk order.
        rng = np.random.default_rng(5)
        n = 3000
        circles = nested_set(mixed_scores(rng, n), rng.random(n) < 0.7)
        candidates = np.sort(rng.choice(n, 1717, replace=False))
        assert_sums_reduce(circles, split(circles, candidates))


class TestRootSplit:
    """A quad split at the root of a set past 40k disks: every child's
    run is long enough to reach the deep pairwise recursion."""

    @pytest.mark.parametrize("seed", range(3))
    def test_root_split_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        n = 45_000
        circles = CircleSet(rng.random(n), rng.random(n),
                            rng.uniform(0.05, 0.6, n),
                            mixed_scores(rng, n))
        candidates = np.arange(n, dtype=np.int64)
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        px, py = (float(v) for v in rng.uniform(0.3, 0.7, 2))
        results = split(circles, candidates, px, py, rect)
        assert_sums_reduce(circles, results)
        assert min(idx.shape[0] for idx, _, _, _ in results) > 10_000
        for child, (idx, mask, max_hat, min_hat) in zip(
                rect.split_at(px, py), results):
            s_idx, s_mask, s_max, s_min = circles.classify_rect(
                child, candidates)
            np.testing.assert_array_equal(idx, s_idx)
            np.testing.assert_array_equal(mask, s_mask)
            assert bits(max_hat) == bits(s_max)
            assert bits(min_hat) == bits(s_min)

    def test_smaller_split_after_larger(self):
        # The scratch rows keep their first stride; later, shorter runs
        # are summed from the same rows.
        rng = np.random.default_rng(9)
        n = 41_000
        circles = CircleSet(rng.random(n), rng.random(n),
                            rng.uniform(0.05, 0.6, n),
                            mixed_scores(rng, n))
        classifier = circles.rect_classifier(0.0)
        everything = np.arange(n, dtype=np.int64)
        if classifier.quad_split(0.0, 0.0, 1.0, 1.0, 0.5, 0.5,
                                 everything) is None:
            pytest.skip("compiled quad kernel unavailable")
        subset = np.sort(rng.choice(n, 300, replace=False))
        results = classifier.quad_split(0.2, 0.2, 0.8, 0.8, 0.45, 0.6,
                                        subset)
        assert_sums_reduce(circles, results)
