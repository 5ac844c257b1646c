"""NLC build + Phase II benchmark: compiled kNN and incremental growth.

Two arms, both asserted bit-identical to their pre-optimisation
counterparts before any timing is believed:

* **NLC build** — a fig10-style customers sweep timing the kNN pass
  that dominates ``build_nlcs``: the compiled tree-pruned kernel (via
  ``knn_chunked``, site index build included) against the pure-numpy
  scan of every site (``_knn_chunked_numpy``, the ``REPRO_NO_CKERNEL``
  fallback), then the same comparison at the sweep's largest ``|O|``
  over site sets that stress the kd-tree's boxes: clustered, tight
  (normal, spread 0.02), collinear (one zero-width axis) and
  duplicated (every site four times).  Every point asserts the two
  produce byte-identical distances AND neighbour indices; the headline
  is the aggregate speedup over all points, budgeted at >= 2x.  When
  the toolchain cannot build the kernel the arm records
  ``compiled_available: false`` and skips the budget (the fallback *is*
  the measured path then).

* **Phase II** — region growth for the ``top_t`` distinct covers of
  real solves (``top_t >= 4``): the incremental clipper +
  SoA-seeded ``compute_optimal_region`` against the preserved pre-PR
  loop ``compute_optimal_region_reference`` (scalar heap seeding,
  from-scratch ``intersect_disks`` per accepted disk).  Every point
  asserts per-region identity — score, cover, clipping_count, and
  float-identical arcs — then times both loops; aggregate budget
  >= 2x.

Run:

    PYTHONPATH=src python benchmarks/bench_phase2_nlc.py
    PYTHONPATH=src python benchmarks/bench_phase2_nlc.py \
        --scale tiny --repeats 2 --relax      # CI smoke

Writes ``BENCH_phase2.json``; headlines are
``headline.nlc_speedup`` and ``headline.phase2_speedup``.  Timings move
with the machine; the identity fields must never move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.bench.config import get_profile
from repro.bench.figures import _problem
from repro.core import nlc as nlc_mod
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.region import (compute_optimal_region,
                               compute_optimal_region_reference)
from repro.datasets.synthetic import (clustered_points, normal_points,
                                      uniform_points)
from repro.index._ckernel import load_knn_kernel
from repro.obs import metrics as obs_metrics

MIN_NLC_SPEEDUP = 2.0
MIN_PHASE2_SPEEDUP = 2.0
PHASE2_TOP_T = 8  # acceptance asks for top_t >= 4

#: Site sets of the NLC arm beyond the instance's own uniform sites.
SITE_SETS = {
    "clustered": lambda n, rng: clustered_points(n, seed=rng),
    "normal-0.02": lambda n, rng: normal_points(n, rng, spread=0.02),
    "collinear": lambda n, rng: np.column_stack(
        [uniform_points(n, rng)[:, 0], np.full(n, 0.5)]),
    "duplicated": lambda n, rng: np.repeat(
        uniform_points(-(-n // 4), rng), 4, axis=0)[:n],
}


# ---------------------------------------------------------------------- #
# NLC build arm
# ---------------------------------------------------------------------- #

def _numpy_knn(queries: np.ndarray, points: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """The REPRO_NO_CKERNEL body, driven directly for the fallback arm."""
    n = queries.shape[0]
    dists = np.empty((n, k), dtype=np.float64)
    indices = np.empty((n, k), dtype=np.int64)
    nlc_mod._knn_chunked_numpy(queries, points, k, dists, indices)
    return dists, indices


def _nlc_point(n_customers: int, n_sites: int, k: int, seed: int,
               repeats: int, compiled_available: bool,
               sites: str = "uniform") -> dict:
    problem = _problem(n_customers, n_sites, k, "uniform", seed)
    queries = np.ascontiguousarray(problem.customers)
    points = np.ascontiguousarray(
        problem.sites if sites == "uniform"
        else SITE_SETS[sites](n_sites, np.random.default_rng(seed)))

    with obs_metrics.REGISTRY.isolated():
        kernel_d, kernel_i = nlc_mod.knn_chunked(queries, points, k)
    numpy_d, numpy_i = _numpy_knn(queries, points, k)
    if kernel_d.tobytes() != numpy_d.tobytes():
        raise AssertionError(
            f"kNN distance mismatch at |O|={n_customers}: compiled and "
            "numpy arms are not byte-identical")
    if kernel_i.tobytes() != numpy_i.tobytes():
        raise AssertionError(
            f"kNN index mismatch at |O|={n_customers}: compiled and "
            "numpy arms are not byte-identical")

    best_kernel = best_numpy = float("inf")
    for _ in range(repeats):
        with obs_metrics.REGISTRY.isolated():
            t0 = time.perf_counter()
            nlc_mod.knn_chunked(queries, points, k)
            best_kernel = min(best_kernel, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _numpy_knn(queries, points, k)
        best_numpy = min(best_numpy, time.perf_counter() - t0)
    return {
        "n_customers": n_customers, "n_sites": n_sites, "sites": sites,
        "k": k, "seed": seed,
        "compiled_s": round(best_kernel, 6),
        "numpy_s": round(best_numpy, 6),
        "speedup": round(best_numpy / best_kernel, 3),
        "identical": True,  # asserted above (distances and indices)
        "compiled_available": compiled_available,
    }


# ---------------------------------------------------------------------- #
# Phase II arm
# ---------------------------------------------------------------------- #

def _phase2_entries(problem) -> tuple:
    """Solve once; return the NLC set and the solved regions' covers."""
    result = MaxFirst(top_t=PHASE2_TOP_T).solve(problem)
    nlcs = build_nlcs(problem)
    entries = [(r.seed_quadrant, np.asarray(r.cover, dtype=np.int64),
                r.score) for r in result.regions]
    return nlcs, entries, result


def _assert_regions_identical(new_regions, ref_regions, label: str):
    for new, ref in zip(new_regions, ref_regions):
        same = (new.score == ref.score and new.cover == ref.cover
                and new.clipping_count == ref.clipping_count
                and (new.shape is None) == (ref.shape is None)
                and (new.shape is None
                     or (new.shape.arcs == ref.shape.arcs
                         and new.shape.degenerate_point
                         == ref.shape.degenerate_point)))
        if not same:
            raise AssertionError(
                f"Phase II identity broken at {label}: optimised region "
                f"(cover {new.cover}) differs from the reference path")


def _phase2_point(distribution: str, n_customers: int, n_sites: int,
                  k: int, seed: int, repeats: int) -> dict:
    problem = _problem(n_customers, n_sites, k, distribution, seed)
    nlcs, entries, result = _phase2_entries(problem)

    def run_new():
        with obs_metrics.REGISTRY.isolated():
            return [compute_optimal_region(quad, cover, nlcs, score=score)
                    for quad, cover, score in entries]

    def run_ref():
        return [compute_optimal_region_reference(quad, cover, nlcs,
                                                 score=score)
                for quad, cover, score in entries]

    label = f"{distribution}/|O|={n_customers}"
    new_regions = run_new()
    ref_regions = run_ref()
    _assert_regions_identical(new_regions, ref_regions, label)
    # The solver's own output came through the optimised path too.
    _assert_regions_identical(result.regions, ref_regions, label)

    best_new = best_ref = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_new()
        best_new = min(best_new, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_ref()
        best_ref = min(best_ref, time.perf_counter() - t0)

    covers = [len(cover) for _, cover, _ in entries]
    return {
        "distribution": distribution, "n_customers": n_customers,
        "n_sites": n_sites, "k": k, "seed": seed,
        "top_t": PHASE2_TOP_T, "n_regions": len(entries),
        "cover_min": int(min(covers)), "cover_max": int(max(covers)),
        "incremental_s": round(best_new, 6),
        "reference_s": round(best_ref, 6),
        "speedup": round(best_ref / best_new, 3),
        "identical": True,  # asserted above, per region
    }


# ---------------------------------------------------------------------- #
# Driver
# ---------------------------------------------------------------------- #

def run(scale: str = "small", repeats: int = 5, relax: bool = False
        ) -> dict:
    profile = get_profile(scale)
    seed = profile.seeds[0]
    k = max(profile.k, 4)
    compiled_available = load_knn_kernel() is not None

    kernel_note = ("present" if compiled_available
                   else "ABSENT - numpy arm measures itself")
    print(f"NLC build (fig10-style |O| sweep, k={k}, compiled kernel "
          f"{kernel_note}):")
    nlc_rows = []
    for n_customers in profile.customers_sweep:
        row = _nlc_point(n_customers, profile.n_sites, k, seed, repeats,
                         compiled_available)
        nlc_rows.append(row)
        print(f"  |O|={n_customers:6d}  compiled={row['compiled_s']:.4f}s"
              f"  numpy={row['numpy_s']:.4f}s"
              f"  speedup={row['speedup']:.2f}x")
    n_customers = max(profile.customers_sweep)
    for sites in SITE_SETS:
        row = _nlc_point(n_customers, profile.n_sites, k, seed, repeats,
                         compiled_available, sites=sites)
        nlc_rows.append(row)
        print(f"  |O|={n_customers:6d}  {sites:11s} "
              f"compiled={row['compiled_s']:.4f}s"
              f"  numpy={row['numpy_s']:.4f}s"
              f"  speedup={row['speedup']:.2f}x")

    print(f"Phase II (top_t={PHASE2_TOP_T}, k={k}):")
    phase2_rows = []
    for distribution in ("uniform", "normal"):
        row = _phase2_point(distribution, profile.n_customers,
                            profile.n_sites, k, seed, repeats)
        phase2_rows.append(row)
        print(f"  {distribution:8s} regions={row['n_regions']:3d} "
              f"covers {row['cover_min']}..{row['cover_max']}  "
              f"incremental={row['incremental_s']:.4f}s "
              f"reference={row['reference_s']:.4f}s "
              f"speedup={row['speedup']:.2f}x")

    nlc_speedup = (sum(r["numpy_s"] for r in nlc_rows)
                   / sum(r["compiled_s"] for r in nlc_rows))
    phase2_speedup = (sum(r["reference_s"] for r in phase2_rows)
                      / sum(r["incremental_s"] for r in phase2_rows))
    if not relax and compiled_available and nlc_speedup < MIN_NLC_SPEEDUP:
        raise AssertionError(
            f"NLC build speedup {nlc_speedup:.2f}x below the "
            f"{MIN_NLC_SPEEDUP}x budget")
    if not relax and phase2_speedup < MIN_PHASE2_SPEEDUP:
        raise AssertionError(
            f"Phase II speedup {phase2_speedup:.2f}x below the "
            f"{MIN_PHASE2_SPEEDUP}x budget")

    return {
        "benchmark": "phase2_nlc",
        "scale": profile.name,
        "repeats": repeats,
        "timing": "min over repeats, arms interleaved in-process",
        "identity": "every NLC point asserted byte-identical (distances "
                    "and indices, compiled tree search vs numpy scan); "
                    "every Phase II "
                    "region asserted identical (score, cover, "
                    "clipping_count, arcs) vs the pre-optimisation "
                    "reference path",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "compiled_kernel": compiled_available,
        "headline": {
            "nlc_speedup": round(nlc_speedup, 3),
            "nlc_speedup_budget": MIN_NLC_SPEEDUP,
            "phase2_speedup": round(phase2_speedup, 3),
            "phase2_speedup_budget": MIN_PHASE2_SPEEDUP,
        },
        "nlc_rows": nlc_rows,
        "phase2_rows": phase2_rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        help="benchmark profile (tiny/small/paper)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per arm (min is reported)")
    parser.add_argument("--relax", action="store_true",
                        help="skip the speedup budget assertions "
                             "(CI smoke on noisy/tiny runs)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_phase2.json"))
    args = parser.parse_args(argv)
    report = run(scale=args.scale, repeats=args.repeats, relax=args.relax)
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    headline = report["headline"]
    print(f"\nNLC build speedup: {headline['nlc_speedup']:.2f}x "
          f"(budget {MIN_NLC_SPEEDUP}x); Phase II speedup: "
          f"{headline['phase2_speedup']:.2f}x (budget "
          f"{MIN_PHASE2_SPEEDUP}x, cpu_count={report['cpu_count']})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
