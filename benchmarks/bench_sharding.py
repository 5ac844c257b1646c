"""Zero-copy sharded Phase I benchmark: unsharded vs serial vs pool.

Times Phase I + merge (``solve_nlcs``; NLC construction excluded) over
the fig11 uniform sweep plus the fig13 sizes (both distributions),
comparing:

* ``unsharded`` — the one-process ``MaxFirst`` solver, the
  identity baseline;
* ``serial``    — 4-way tile-sharded execution in-process, in tile
  order.  Its overhead against ``unsharded`` is the headline: the tile
  grid costs only the work the cuts actually add (boundary tessellation),
  bounded at <= 1.15x aggregate on fig11-uniform;
* ``pool``      — the same tiles on the persistent worker pool, the
  NLC set published once per solve into a ``memmap`` store.  On a
  single-core box this arm honestly pays queue + store round-trip with
  no parallel win; ``cpu_count`` is recorded next to the numbers.

Every point asserts all arms return the bit-identical optimal score and
identical region cover sets.  A separate transport check runs one
pool-mode solve through the engine pipeline and asserts every tile job
read its rows out of the ``memmap`` store: at least one slice view per
pool task.

Run:

    PYTHONPATH=src python benchmarks/bench_sharding.py
    PYTHONPATH=src python benchmarks/bench_sharding.py \
        --scale tiny --repeats 2 --relax      # CI smoke

Writes ``BENCH_sharding.json``; the headline is
``headline.fig11_uniform_serial_overhead`` (serial/unsharded aggregate,
asserted <= 1.15 unless ``--relax``).  Timings move with the machine;
the identity and transport fields must never move.
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
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.engine import ShardedMaxFirst, run_pipeline

SHARDS = 4
MAX_SERIAL_OVERHEAD = 1.15


def _region_keys(result):
    return sorted(tuple(int(i) for i in r.cover) for r in result.regions)


def _time_point(nlcs, arms: dict, repeats: int) -> dict:
    results = {arm: solver.solve_nlcs(nlcs)       # warm-up + result
               for arm, solver in arms.items()}
    single = results["unsharded"]
    for arm, result in results.items():
        if result.score != single.score:
            raise AssertionError(
                f"{arm} disagrees on score: {result.score} != "
                f"{single.score}")
        if _region_keys(result) != _region_keys(single):
            raise AssertionError(
                f"{arm} disagrees on region covers: "
                f"{_region_keys(result)} != {_region_keys(single)}")
    best = {arm: float("inf") for arm in arms}
    for _ in range(repeats):
        for arm, solver in arms.items():
            t0 = time.perf_counter()
            solver.solve_nlcs(nlcs)
            elapsed = time.perf_counter() - t0
            if elapsed < best[arm]:
                best[arm] = elapsed
    row = {f"{arm}_s": round(seconds, 6) for arm, seconds in best.items()}
    row["serial_overhead"] = round(best["serial"] / best["unsharded"], 3)
    row["score"] = single.score
    row["n_regions"] = len(single.regions)
    row["identical"] = True  # asserted above
    return row


def _transport_check(profile, seed: int) -> dict:
    """One pool-mode pipeline run: every tile job must read its row
    window out of the ``memmap`` store (one slice view per task at
    least)."""
    problem = _problem(profile.n_customers, profile.n_sites, profile.k,
                       "uniform", seed)
    _, report = run_pipeline("maxfirst-sharded", problem, shards=SHARDS,
                             mode="pool", max_workers=1)
    tasks = report.counters["pool_tasks"]
    views = report.counters["store_slice_views"]
    if tasks < 1:
        raise AssertionError("pool ran no tasks")
    if views < tasks:
        raise AssertionError(
            f"memmap transport broken: {views} slice views for {tasks} "
            "pool tasks")
    return {
        "store": "memmap",
        "pool_tasks": tasks,
        "store_slice_views": views,
        "tiles_stolen": report.counters["tiles_stolen"],
        "workers": report.meta["workers"],
    }


def run(scale: str = "small", repeats: int = 5, relax: bool = False
        ) -> dict:
    profile = get_profile(scale)
    seed = profile.seeds[0]
    rows = []
    arms = {
        "unsharded": MaxFirst(),
        "serial": ShardedMaxFirst(shards=SHARDS, mode="serial"),
        "pool": ShardedMaxFirst(shards=SHARDS, mode="pool"),
    }

    def point(figure: str, distribution: str, n_customers: int,
              n_sites: int) -> None:
        problem = _problem(n_customers, n_sites, profile.k, distribution,
                           seed)
        nlcs = build_nlcs(problem)
        row = {"figure": figure, "distribution": distribution,
               "n_customers": n_customers, "n_sites": n_sites,
               "k": profile.k, "seed": seed, "n_nlcs": len(nlcs)}
        row.update(_time_point(nlcs, arms, repeats))
        rows.append(row)
        print(f"  {figure} {distribution:8s} |O|={n_customers:6d} "
              f"|P|={n_sites:4d}  unsharded={row['unsharded_s']:.4f}s "
              f"serial={row['serial_s']:.4f}s pool={row['pool_s']:.4f}s  "
              f"serial-overhead={row['serial_overhead']:.2f}x")

    try:
        print("fig11 (effect of |P|), uniform:")
        for n_sites in profile.sites_sweep:
            point("fig11", "uniform", profile.n_customers, n_sites)
        print("fig13 sizes, both distributions:")
        for distribution in ("uniform", "normal"):
            point("fig13", distribution, profile.n_customers,
                  profile.n_sites)
        transport = _transport_check(profile, seed)
    finally:
        arms["serial"].close()
        arms["pool"].close()

    fig11u = [r for r in rows
              if r["figure"] == "fig11" and r["distribution"] == "uniform"]
    unsharded_total = sum(r["unsharded_s"] for r in fig11u)
    serial_total = sum(r["serial_s"] for r in fig11u)
    pool_total = sum(r["pool_s"] for r in fig11u)
    overhead = serial_total / unsharded_total
    if not relax and overhead > MAX_SERIAL_OVERHEAD:
        raise AssertionError(
            f"fig11-uniform serial overhead {overhead:.3f}x exceeds the "
            f"{MAX_SERIAL_OVERHEAD}x budget")
    headline = {
        "fig11_uniform_unsharded_s": round(unsharded_total, 6),
        "fig11_uniform_serial_s": round(serial_total, 6),
        "fig11_uniform_pool_s": round(pool_total, 6),
        "fig11_uniform_serial_overhead": round(overhead, 3),
        "serial_overhead_budget": MAX_SERIAL_OVERHEAD,
    }
    report = {
        "benchmark": "sharding",
        "scale": profile.name,
        "shards": SHARDS,
        "repeats": repeats,
        "timing": "min over repeats, arms interleaved in-process",
        "measured": "solve_nlcs (Phase I + merge; NLC build excluded)",
        "identity": "every sharded arm asserted bit-identical (score and "
                    "region covers) to the single-process batched run",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "headline": headline,
        "transport": transport,
        "rows": rows,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        help="benchmark profile (tiny/small/paper)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per arm (min is reported)")
    parser.add_argument("--relax", action="store_true",
                        help="skip the serial-overhead budget assertion "
                             "(CI smoke on noisy/tiny runs)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_sharding.json"))
    args = parser.parse_args(argv)
    report = run(scale=args.scale, repeats=args.repeats, relax=args.relax)
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    headline = report["headline"]["fig11_uniform_serial_overhead"]
    print(f"\nfig11 uniform serial aggregate overhead: {headline:.2f}x "
          f"(budget {MAX_SERIAL_OVERHEAD}x, "
          f"cpu_count={report['cpu_count']})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
