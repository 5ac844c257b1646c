"""Out-of-core scale benchmark: a 10M-customer solve under 480 MB.

The acceptance run of the storage tier (see DESIGN.md "§ Storage
tier"): build ten million NLCs straight into a ``memmap`` store with
:func:`repro.core.nlc.stream_nlc_chunks` — the full coordinate, weight
and SoA arrays never materialise — then solve the instance with
:func:`repro.engine.outofcore.solve_streamed`, which chunk-scans the
file for planning and searches one tile's halo at a time, gathered out
of its row window.  The process peak RSS is asserted **below the
in-RAM SoA footprint of the instance** (``6 fields x 8 bytes x 10M
rows = 480,000,000 bytes``): the solve provably never held its own
input in memory.

Instance design: customers stream x-sorted through
:func:`~repro.datasets.synthetic.striped_uniform_chunks` (so tile row
windows are tight), sites are uniform, and one vertical strip carries
~1000x the weight of the rest.  The skew localises the optimum, which
keeps Phase I output-sensitive at this scale — the benchmark measures
the out-of-core *mechanics* (streamed build, chunked planning, windowed
tiles), not worst-case tessellation.  Scores stay positive everywhere,
so the store holds all ``n x k`` rows and the footprint claim is exact.

Run:

    PYTHONPATH=src python benchmarks/bench_scale.py            # full 10M
    PYTHONPATH=src python benchmarks/bench_scale.py --tiny     # CI smoke

Writes ``BENCH_scale.json``.  The memory ceiling is asserted at every
scale (the CI perf-gate job runs ``--tiny``); wall-clock numbers are
informational and move with the machine, the ``peak_rss_bytes <
rss_ceiling_bytes`` field must never move.  The solve runs with the
:mod:`repro.obs` tracer on, and ``plan_layers_s`` splits
``solve_timings.plan`` into the self time of the planner's three scan
spans, asserted to cover at least 95% of it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro import store as nlc_store
from repro.core.nlc import stream_nlc_chunks
from repro.datasets.synthetic import striped_uniform_chunks, uniform_points
from repro.engine.outofcore import solve_streamed
from repro.obs import metrics as obs_metrics
from repro.obs.trace import TRACER

#: The asserted ceiling: the in-RAM SoA footprint of the full-scale
#: instance.  Binding evidence of out-of-core behaviour at ``--tiny``
#: scale it is not (the interpreter alone fits many tiny instances);
#: at full scale staying under it proves the 480 MB input never sat in
#: memory at once.
RSS_CEILING_BYTES = 6 * 8 * 10_000_000

FULL = dict(n_customers=10_000_000, n_sites=1024, strips=1024, shards=64)
TINY = dict(n_customers=200_000, n_sites=256, strips=256, shards=16)

#: The planner's spans (``plan_streamed``): the bounding-box scan, the
#: grid-binned halo pass that yields the tiles' halo bitmaps and row
#: windows, and the seed-bound classification of the tiles some disk
#: contains.
PLAN_LAYERS = ("stream/scan_bbox", "stream/scan_windows",
               "stream/seed_bound")
#: Share of ``solve_timings.plan`` the three layers must account for.
MIN_PLAN_LAYER_SHARE = 0.95

#: Per-strip weight scale: one hot strip, everything else ~1000x lighter.
HOT_FACTOR, COLD_FACTOR = 1.0, 0.001
BUILD_CHUNKS_SEED = 0
WEIGHT_SEED = 1
SITES_SEED = 7


def _peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak * (1 if sys.platform == "darwin" else 1024))


def _self_seconds(records, names) -> dict:
    """Summed self time (duration minus direct children) per span name."""
    out = dict.fromkeys(names, 0.0)
    for rec in records:
        if rec.name not in out:
            continue
        end = rec.ts + rec.dur
        children = sum(child.dur for child in records
                       if child.depth == rec.depth + 1
                       and rec.ts <= child.ts
                       and child.ts + child.dur <= end)
        out[rec.name] += rec.dur - children
    return out


def _weight_chunks(n: int, strips: int):
    """Per-strip weights, uniform [0.5, 1.5) scaled hot/cold — chunk
    lengths mirror :func:`striped_uniform_chunks`'s base/extra split.

    The hot strip is the *first* one: the tile schedule visits the grid
    row-major from the origin, so tile 0 contains the optimum and every
    later tile inherits a dominating Theorem 2 bound at its root.  (A
    mid-domain hot strip lets the all-cold tiles before it tessellate a
    near-tie score plateau under no bound — measurably hundreds of tied
    accepts whose Theorem 3 seed masks then dominate memory.)"""
    base, extra = divmod(n, strips)
    hot = 0
    for j in range(strips):
        m = base + (1 if j < extra else 0)
        rng = np.random.default_rng([WEIGHT_SEED, j])
        factor = HOT_FACTOR if j == hot else COLD_FACTOR
        yield rng.uniform(0.5, 1.5, m) * factor


def run(params: dict, k: int = 1, chunk_rows: int = 1_048_576) -> dict:
    n, strips = params["n_customers"], params["strips"]
    sites = uniform_points(params["n_sites"],
                           np.random.default_rng([SITES_SEED, 0]))
    rss_start = _peak_rss_bytes()
    counters_before = obs_metrics.REGISTRY.snapshot()

    t0 = time.perf_counter()
    writer = nlc_store.writer(n * k, "memmap")
    try:
        chunks = stream_nlc_chunks(
            striped_uniform_chunks(n, strips, seed=BUILD_CHUNKS_SEED),
            sites, k, weight_chunks=_weight_chunks(n, strips))
        for chunk in chunks:
            writer.append(chunk)
        owner = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    t1 = time.perf_counter()

    try:
        TRACER.reset(enabled=True)
        try:
            result = solve_streamed(owner.handle, shards=params["shards"],
                                    chunk_rows=chunk_rows)
        finally:
            TRACER.disable()
        t2 = time.perf_counter()
        peak = _peak_rss_bytes()
        store_bytes = nlc_store.store_nbytes(owner.length)
        plan_layers = _self_seconds(TRACER.drain(), PLAN_LAYERS)
        plan_share = sum(plan_layers.values()) / result.timings["plan"]
        row = {
            "benchmark": "scale",
            **params, "k": k, "store": "memmap",
            "cpu_count": os.cpu_count(),
            "n_nlcs": owner.length,
            "store_bytes": store_bytes,
            "rss_ceiling_bytes": RSS_CEILING_BYTES,
            "rss_start_bytes": rss_start,
            "peak_rss_bytes": peak,
            "under_ceiling": peak < RSS_CEILING_BYTES,
            "score": result.score,
            "n_regions": len(result.regions),
            "max_cover": max((len(r.cover) for r in result.regions),
                             default=0),
            "build_s": round(t1 - t0, 3),
            "solve_s": round(t2 - t1, 3),
            "solve_timings": {name: round(seconds, 3) for name, seconds
                              in result.timings.items()},
            "plan_layers_s": {name: round(seconds, 3) for name, seconds
                              in plan_layers.items()},
            "plan_layers_share": round(plan_share, 4),
            "counters": obs_metrics.REGISTRY.delta_since(counters_before),
            "gauges": obs_metrics.REGISTRY.gauges_snapshot(),
        }
    finally:
        nlc_store.detach()
        owner.close()
    if not row["under_ceiling"]:
        raise AssertionError(
            f"peak RSS {peak} >= ceiling {RSS_CEILING_BYTES}: the "
            f"out-of-core solve held too much of the instance in memory")
    if plan_share < MIN_PLAN_LAYER_SHARE:
        raise AssertionError(
            f"the planner's spans cover {plan_share:.1%} of the plan "
            f"time, below {MIN_PLAN_LAYER_SHARE:.0%}: unattributed "
            f"planning work")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke scale (~200K customers)")
    parser.add_argument("--customers", type=int, default=None,
                        help="override the customer count (pilot runs)")
    parser.add_argument("--output", default="BENCH_scale.json")
    args = parser.parse_args(argv)
    params = dict(TINY if args.tiny else FULL)
    if args.customers is not None:
        params["n_customers"] = args.customers
    row = run(params)
    with open(args.output, "w") as fh:
        json.dump(row, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"n={row['n_nlcs']} nlcs ({row['store_bytes'] / 1e6:.0f} MB "
          f"on disk)  score={row['score']:.4f}  "
          f"build={row['build_s']}s solve={row['solve_s']}s  "
          f"peak RSS {row['peak_rss_bytes'] / 1e6:.0f} MB < ceiling "
          f"{row['rss_ceiling_bytes'] / 1e6:.0f} MB")
    layers = "  ".join(f"{name}={seconds}s" for name, seconds
                       in row["plan_layers_s"].items())
    print(f"plan={row['solve_timings']['plan']}s: {layers} "
          f"({row['plan_layers_share']:.1%} attributed)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
