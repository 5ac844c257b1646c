"""Bitwise identity of the compiled kNN kernel and its numpy fallback.

The tree-pruned ``knn_tree_search`` C kernel and ``_knn_chunked_numpy``
must agree bit-for-bit — distances AND indices — on every input,
including tie-heavy grids where an argpartition boundary tie could
silently pick a different (equal-distance) neighbour set, site sets
whose kd-tree boxes degenerate (duplicates, a zero-width axis, extents
near the rounding floor), and site sets of any size.  CI runs this file
on both ``REPRO_NO_CKERNEL`` arms; under the gate the compiled branch is
absent and the tests still pin the numpy body against the stable-argsort
reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import nlc as nlc_mod
from repro.core.nlc import (build_knn_tree, build_nlcs,
                            build_nlcs_streaming, knn_chunked,
                            knn_distances, stream_nlc_chunks)
from repro.core.problem import MaxBRkNNProblem
from repro.index._ckernel import load_knn_kernel
from repro.obs import metrics as obs_metrics


def reference_knn(queries, points, k):
    """Stable-argsort (d², index) reference: the identity oracle."""
    deltas = queries[:, None, :] - points[None, :, :]
    d2 = np.einsum("qpc,qpc->qp", deltas, deltas)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows = np.arange(queries.shape[0])[:, None]
    return np.sqrt(d2[rows, order]), order.astype(np.int64)


def tie_heavy_instance(rng, n_queries=64, n_points=40):
    """Coordinates on a coarse grid: many exactly-equal distances."""
    queries = np.round(rng.random((n_queries, 2)) * 4) / 4
    points = np.round(rng.random((n_points, 2)) * 4) / 4
    return queries, points


class TestBitwiseIdentity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_matches_stable_argsort_reference(self, seed, k):
        rng = np.random.default_rng(seed)
        queries = rng.random((50, 2))
        points = rng.random((30, 2))
        with obs_metrics.REGISTRY.isolated():
            dists, idx = knn_chunked(queries, points, k)
        ref_d, ref_i = reference_knn(queries, points, k)
        assert dists.tobytes() == ref_d.tobytes()
        assert idx.tobytes() == ref_i.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_ties_resolve_to_lowest_indices(self, seed):
        rng = np.random.default_rng(100 + seed)
        queries, points = tie_heavy_instance(rng)
        for k in (1, 2, 5, points.shape[0]):
            with obs_metrics.REGISTRY.isolated():
                dists, idx = knn_chunked(queries, points, k)
            ref_d, ref_i = reference_knn(queries, points, k)
            assert idx.tobytes() == ref_i.tobytes()
            assert dists.tobytes() == ref_d.tobytes()

    def test_numpy_body_matches_public_path(self, monkeypatch, rng):
        """Force the fallback body and compare against knn_chunked —
        on the compiled arm this is the C-vs-numpy identity proof, on
        the REPRO_NO_CKERNEL arm it is a (trivially passing) self-check.
        """
        queries, points = tie_heavy_instance(rng, 300, 70)
        k = 6
        with obs_metrics.REGISTRY.isolated():
            dists, idx = knn_chunked(queries, points, k)
        np_d = np.empty((300, k), dtype=np.float64)
        np_i = np.empty((300, k), dtype=np.int64)
        nlc_mod._knn_chunked_numpy(
            np.ascontiguousarray(queries), np.ascontiguousarray(points),
            k, np_d, np_i)
        assert dists.tobytes() == np_d.tobytes()
        assert idx.tobytes() == np_i.tobytes()


class TestChunking:
    def test_exact_final_chunk(self, monkeypatch, rng):
        """A partial final chunk (n % chunk != 0) is sliced exactly —
        no numpy overshoot rows — and counted as its own chunk."""
        monkeypatch.setattr(nlc_mod, "_BRUTE_CHUNK", 7)
        queries = rng.random((23, 2))  # 3 full chunks + 2 rows
        points = rng.random((11, 2))
        with obs_metrics.REGISTRY.isolated() as box:
            dists, idx = knn_chunked(queries, points, 4)
        ref_d, ref_i = reference_knn(queries, points, 4)
        assert dists.tobytes() == ref_d.tobytes()
        assert idx.tobytes() == ref_i.tobytes()
        assert box["counters"]["nlc_build_queries"] == 23
        assert box["counters"]["nlc_build_chunks"] == 4

    def test_counters_identical_across_chunk_sizes(self, rng):
        """nlc_build_queries is chunk-size independent (the gate relies
        on the formula count, not the loop trip count)."""
        queries = rng.random((40, 2))
        points = rng.random((9, 2))
        with obs_metrics.REGISTRY.isolated() as box:
            knn_chunked(queries, points, 3)
        assert box["counters"]["nlc_build_queries"] == 40
        assert box["counters"]["nlc_build_chunks"] == 1

    @pytest.mark.parametrize("k", [3, 11])
    def test_scan_caps_rows_by_the_element_budget(self, monkeypatch, rng,
                                                   k):
        """With a small (query, site) budget the numpy scan takes fewer
        rows per chunk, never more pairs than the budget, and still
        equals the reference; the chunk counter keeps its formula."""
        monkeypatch.setattr(nlc_mod, "_SCAN_ELEMENTS", 40)
        scanned = []
        real_fix = nlc_mod._fix_boundary_ties

        def recording_fix(d2, sel_idx, sel_d2):
            scanned.append(d2.size)
            real_fix(d2, sel_idx, sel_d2)

        monkeypatch.setattr(nlc_mod, "_fix_boundary_ties", recording_fix)
        monkeypatch.setattr(nlc_mod, "load_knn_kernel", lambda: None)
        queries, points = tie_heavy_instance(rng, 23, 11)  # 3 rows a chunk
        with obs_metrics.REGISTRY.isolated() as box:
            dists, idx = knn_chunked(queries, points, k)
        ref_d, ref_i = reference_knn(queries, points, k)
        assert dists.tobytes() == ref_d.tobytes()
        assert idx.tobytes() == ref_i.tobytes()
        assert box["counters"]["nlc_build_chunks"] == 1
        if k < points.shape[0]:
            assert len(scanned) == 8 and max(scanned) <= 40


class TestIndicesPlumbing:
    def test_invalid_k_raises(self, rng):
        pts = rng.random((5, 2))
        for search in (knn_chunked, knn_distances):
            with pytest.raises(ValueError):
                search(pts, pts, 0)
            with pytest.raises(ValueError):
                search(pts, pts, 6)


class TestManySites:
    def test_radii_match_reference_above_4096_sites(self, rng):
        """Past the old 4096-site engine switch, NLC radii and
        knn_chunked both equal the stable-argsort reference bit for bit
        (an engine that computed radii with hypot moved ~1 in 6 by an
        ulp)."""
        customers = rng.random((3000, 2))
        sites = rng.random((5000, 2))
        problem = MaxBRkNNProblem(customers, sites, k=2)
        ref = [reference_knn(customers[i:i + 500], sites, 2)
               for i in range(0, 3000, 500)]
        ref_d = np.concatenate([d for d, _ in ref])
        ref_i = np.concatenate([i for _, i in ref])
        with obs_metrics.REGISTRY.isolated():
            nlcs = build_nlcs(problem, keep_zero_score=True)
            dists, idx = knn_chunked(customers, sites, 2)
        assert nlcs.r.tobytes() == ref_d.tobytes()
        assert dists.tobytes() == ref_d.tobytes()
        assert idx.tobytes() == ref_i.tobytes()


# ---------------------------------------------------------------------- #
# Stress: the pruned kernel against the reference on hostile site sets
# ---------------------------------------------------------------------- #

_SHAPES = ("uniform", "lattice", "duplicates", "zero_width_x",
           "zero_width_y", "clustered")


def _sites(shape, n, rng):
    """``n`` unit-scale sites of one degenerate-friendly shape."""
    if shape == "lattice":  # many exactly-equal distances
        return np.floor(rng.random((n, 2)) * 6) / 6
    if shape == "duplicates":  # every site repeated several times
        base = rng.random((max(1, n // 4), 2))
        return base[rng.integers(0, base.shape[0], n)]
    if shape == "zero_width_x":  # all sites on one vertical line
        return np.column_stack([np.full(n, 0.5), rng.random(n)])
    if shape == "zero_width_y":
        return np.column_stack([rng.random(n), np.full(n, 0.25)])
    if shape == "clustered":
        centres = rng.random((3, 2))
        return (centres[rng.integers(0, 3, n)]
                + rng.normal(scale=0.01, size=(n, 2)))
    return rng.random((n, 2))


@st.composite
def stress_cases(draw):
    """A site set of 1-3000 points, scaled by ``extent`` and shifted by
    ``offset``, with queries that reach well outside its bounding box."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 3000)))
    shape = draw(st.sampled_from(_SHAPES))
    offset = draw(st.sampled_from([0.0, -7.5, 1e6, -1e9, 1e9]))
    extent = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = offset + extent * _sites(shape, n, rng)
    # Queries over 3x the site box's extent on each axis: most of them
    # fall outside the box.
    queries = offset + extent * (rng.random((draw(st.integers(1, 60)), 2))
                                 * 3.0 - 1.0)
    if draw(st.booleans()):  # some queries exactly on sites
        queries[: min(n, queries.shape[0])] = points[: queries.shape[0]]
    k = draw(st.one_of(st.integers(1, min(n, 8)), st.just(n)))
    return queries, points, k


class TestPrunedKernelStress:
    @settings(max_examples=120, deadline=None)
    @given(stress_cases())
    def test_matches_reference_bytes(self, case):
        queries, points, k = case
        with obs_metrics.REGISTRY.isolated():
            dists, idx = knn_chunked(queries, points, k)
        ref_d, ref_i = reference_knn(queries, points, k)
        assert idx.tobytes() == ref_i.tobytes()
        assert dists.tobytes() == ref_d.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(stress_cases())
    def test_prebuilt_index_matches_reference_bytes(self, case):
        """The index from build_knn_tree (reused across calls, as the
        streamed build and the pipeline do) answers like a fresh one."""
        queries, points, k = case
        tree = build_knn_tree(points)
        with obs_metrics.REGISTRY.isolated():
            first = knn_chunked(queries, points, k, tree=tree)
            again = knn_chunked(queries[::-1], points, k, tree=tree)
        ref_d, ref_i = reference_knn(queries, points, k)
        assert first[1].tobytes() == ref_i.tobytes()
        assert first[0].tobytes() == ref_d.tobytes()
        assert again[1].tobytes() == ref_i[::-1].tobytes()

    def test_single_site(self):
        points = np.array([[3.0, -2.0]])
        queries = np.array([[3.0, -2.0], [1e9, 1e9], [-5.0, 0.5]])
        with obs_metrics.REGISTRY.isolated():
            dists, idx = knn_chunked(queries, points, 1)
        ref_d, ref_i = reference_knn(queries, points, 1)
        assert dists.tobytes() == ref_d.tobytes()
        assert idx.tobytes() == ref_i.tobytes()


class TestSiteIndex:
    def test_index_exists_only_on_the_compiled_arm(self, rng):
        tree = build_knn_tree(rng.random((50, 2)))
        if load_knn_kernel() is None:
            assert tree is None
        else:
            assert isinstance(tree, nlc_mod.SiteTree)
            assert len(tree) == 50

    def test_index_over_another_site_set_is_rejected(self, rng):
        if load_knn_kernel() is None:
            pytest.skip("the numpy scan takes no site index")
        tree = build_knn_tree(rng.random((10, 2)))
        with pytest.raises(ValueError, match="site index"):
            knn_chunked(rng.random((4, 2)), rng.random((11, 2)), 2,
                        tree=tree)

    @pytest.mark.parametrize("entry", ["build_nlcs", "knn_distances",
                                       "stream", "streaming"])
    def test_index_over_other_sites_of_equal_count_is_rejected(self, rng,
                                                               entry):
        """A tree over 50 sites near (0.5, 0.5) must not answer for 50
        other sites near (5.5, 5.5), whatever entry point it reaches."""
        if load_knn_kernel() is None:
            pytest.skip("the numpy scan takes no site index")
        customers = rng.random((30, 2)) + 5.0
        sites = rng.random((50, 2)) + 5.0
        tree = build_knn_tree(rng.random((50, 2)))
        problem = MaxBRkNNProblem(customers, sites, k=1)
        with obs_metrics.REGISTRY.isolated(), \
                pytest.raises(ValueError, match="site index"):
            if entry == "build_nlcs":
                build_nlcs(problem, tree=tree)
            elif entry == "knn_distances":
                knn_distances(customers, sites, 1, tree=tree)
            elif entry == "stream":
                list(stream_nlc_chunks([customers], sites, 1, tree=tree))
            else:
                build_nlcs_streaming(problem, store="ram", tree=tree)

    def test_index_over_an_equal_copy_is_accepted(self, rng):
        sites = rng.random((50, 2))
        queries = rng.random((20, 2))
        tree = build_knn_tree(sites)
        with obs_metrics.REGISTRY.isolated():
            got = knn_chunked(queries, sites.copy(), 3, tree=tree)
        ref_d, ref_i = reference_knn(queries, sites, 3)
        assert got[0].tobytes() == ref_d.tobytes()
        assert got[1].tobytes() == ref_i.tobytes()

    @pytest.mark.parametrize("entry", ["stream", "problem"])
    def test_streamed_build_prepares_the_index_once(self, monkeypatch,
                                                     rng, entry):
        """One site index per streamed build, not one per chunk."""
        built = []
        real_init = nlc_mod.SiteTree.__init__

        def counting_init(self, points, kernel):
            built.append(points.shape[0])
            real_init(self, points, kernel)

        monkeypatch.setattr(nlc_mod.SiteTree, "__init__", counting_init)
        customers = rng.random((700, 2))
        sites = rng.random((40, 2))
        with obs_metrics.REGISTRY.isolated():
            if entry == "stream":
                chunks = [customers[i:i + 100] for i in range(0, 700, 100)]
                out = list(stream_nlc_chunks(chunks, sites, 2))
                assert len(out) == 7
            else:
                problem = MaxBRkNNProblem(customers, sites, k=2)
                build_nlcs_streaming(problem, store="ram",
                                     chunk_size=100).close()
        assert built == ([40] if load_knn_kernel() is not None else [])
