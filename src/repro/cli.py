"""Command-line interface.

Five subcommands::

    repro-maxbrknn solve --customers o.csv --sites p.csv -k 2 \
        --probability 0.8,0.2
    repro-maxbrknn generate --kind uniform -n 1000 -o points.csv --seed 7
    repro-maxbrknn bench --figure fig10a --scale tiny
    repro-maxbrknn serve --port 0 --store memmap
    repro-maxbrknn query --url 127.0.0.1:8421 --instance ID --kind brknn \
        --site 3

``solve`` prints the optimum, its regions and the Phase I statistics;
``bench`` regenerates one paper figure as a table and ASCII chart;
``serve`` runs the persistent query daemon (:mod:`repro.serve`) and
``query`` talks to one — publish an instance once, then issue
``brknn`` / ``site_influence`` / ``impact`` / ``solve`` /
``solve_anytime`` requests against it over the socket.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bench import figures as _figures
from repro.bench.config import get_profile, profile_names
from repro.bench.report import ascii_chart, format_table
from repro.core.problem import MaxBRkNNProblem
from repro.datasets.loader import load_points_csv, save_points_csv
from repro.datasets.realworld import make_ne, make_ux
from repro.datasets.synthetic import (clustered_points, normal_points,
                                      uniform_points)
from repro.store import STORE_NAMES

_FIGURES = {
    "fig8": lambda p: _figures.fig08_effect_of_m(p),
    "fig10a": lambda p: _figures.fig10_effect_of_customers("uniform", p),
    "fig10b": lambda p: _figures.fig10_effect_of_customers("normal", p),
    "fig11a": lambda p: _figures.fig11_effect_of_sites("uniform", p),
    "fig11b": lambda p: _figures.fig11_effect_of_sites("normal", p),
    "fig12a": lambda p: _figures.fig12a_effect_of_k(p),
    "fig12b": lambda p: _figures.fig12b_probability_models(p),
    "fig13a": lambda p: _figures.fig13_pruning("uniform", p),
    "fig13b": lambda p: _figures.fig13_pruning("normal", p),
    "fig14a": lambda p: _figures.fig14_real_world("ux", p),
    "fig14b": lambda p: _figures.fig14_real_world("ne", p),
}

_GENERATORS = {
    "uniform": lambda n, seed: uniform_points(n, seed),
    "normal": lambda n, seed: normal_points(n, seed),
    "clustered": lambda n, seed: clustered_points(n, seed=seed),
    "ux": lambda n, seed: make_ux(n, seed=seed),
    "ne": lambda n, seed: make_ne(n, seed=seed),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    parser.print_help()
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-maxbrknn",
        description="MaxFirst for MaxBRkNN (ICDE 2011 reproduction)")
    sub = parser.add_subparsers(dest="command")

    solve = sub.add_parser("solve", help="solve a MaxBRkNN instance")
    solve.add_argument("--customers", required=True,
                       help="CSV of customer points (x,y)")
    solve.add_argument("--sites", required=True,
                       help="CSV of service-site points (x,y)")
    solve.add_argument("-k", type=int, default=1,
                       help="number of nearest sites per customer")
    solve.add_argument("--probability", default=None,
                       help="comma-separated model, e.g. 0.8,0.2 "
                            "(default: uniform)")
    solve.add_argument("--weights", default=None,
                       help="CSV with one weight per customer (first "
                            "column)")
    from repro.engine import solver_names

    solve.add_argument("--solver", choices=solver_names(),
                       default="maxfirst")
    solve.add_argument("--top-t", type=int, default=1,
                       help="return the t best-scoring distinct regions "
                            "(MaxFirst only)")
    solve.add_argument("--report", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the engine RunReport (per-stage timings "
                            "and counters) as JSON to stdout, or to PATH")
    solve.add_argument("--shards", type=int, default=2,
                       help="tile count for --solver maxfirst-sharded "
                            "(rounded up to a full near-square grid)")
    solve.add_argument("--shard-mode",
                       choices=("auto", "serial", "tiles", "pool"),
                       default="auto",
                       help="execution mode for --solver maxfirst-sharded: "
                            "serial = one unified in-process frontier, "
                            "tiles = the tile engine in-process, one row "
                            "window at a time, pool = the same per-tile "
                            "executor in worker processes, auto = pool "
                            "when multi-core")
    solve.add_argument("--pool", type=int, default=None, metavar="WORKERS",
                       help="worker-process count for pool-mode sharding "
                            "(default: min(shards, cpu count))")
    solve.add_argument("--store", choices=STORE_NAMES,
                       default=None,
                       help="NLC storage backend: ram keeps in-process "
                            "arrays (default), memmap publishes a paged "
                            "on-disk file (out-of-core scale tier); "
                            "unset defers to the REPRO_STORE "
                            "environment variable")
    solve.add_argument("--metric", choices=("l2", "l1"), default="l2",
                       help="distance metric: Euclidean (default) or "
                            "Manhattan (exact rectilinear sweep)")
    solve.add_argument("--trace", default=None, metavar="PATH",
                       help="record spans during the solve and write a "
                            "trace to PATH (see docs/observability.md)")
    solve.add_argument("--trace-format", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="trace output format: Chrome trace_event "
                            "JSON for Perfetto (default) or JSON lines")
    solve.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the run's observability counters and "
                            "gauges as a flat metrics.json to PATH")

    gen = sub.add_parser("generate", help="generate a point dataset")
    gen.add_argument("--kind", choices=sorted(_GENERATORS),
                     default="uniform")
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="re-run one paper figure")
    bench.add_argument("--figure", choices=sorted(_FIGURES), required=True)
    bench.add_argument("--scale", choices=profile_names(), default=None)

    from repro.serve.protocol import REQUEST_KINDS

    serve = sub.add_parser(
        "serve", help="run the persistent query daemon")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (loopback by default)")
    serve.add_argument("--port", type=int, default=8421,
                       help="bind port; 0 picks an ephemeral one (the "
                            "daemon prints the bound address)")
    serve.add_argument("--store", choices=STORE_NAMES,
                       default=None,
                       help="NLC storage backend for published "
                            "instances (unset defers to REPRO_STORE, "
                            "then ram)")
    serve.add_argument("--cache-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="result-cache byte budget (default 64 MiB; "
                            "0 disables caching)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="record serve spans; write a Chrome trace "
                            "to PATH on shutdown")
    serve.add_argument("--metrics", default=None, metavar="PATH",
                       help="write final counters/gauges as "
                            "metrics.json to PATH on shutdown")

    query = sub.add_parser(
        "query", help="talk to a running serve daemon")
    query.add_argument("--url", required=True, metavar="HOST:PORT",
                       help="daemon address, e.g. 127.0.0.1:8421")
    query.add_argument("--publish", action="store_true",
                       help="publish an instance first (needs "
                            "--customers/--sites/-k); its id becomes "
                            "the target of --kind")
    query.add_argument("--customers", default=None,
                       help="CSV of customer points (with --publish)")
    query.add_argument("--sites", default=None,
                       help="CSV of service-site points (with "
                            "--publish)")
    query.add_argument("-k", type=int, default=1,
                       help="neighbourhood size (with --publish)")
    query.add_argument("--probability", default=None,
                       help="comma-separated model or a named one "
                            "(uniform/linear/harmonic; with --publish)")
    query.add_argument("--weights", default=None,
                       help="CSV with one weight per customer (with "
                            "--publish)")
    query.add_argument("--store", choices=STORE_NAMES,
                       default=None,
                       help="storage backend for --publish (daemon "
                            "default otherwise)")
    query.add_argument("--instance", default=None, metavar="ID",
                       help="target instance id (from a previous "
                            "--publish)")
    query.add_argument("--kind", choices=REQUEST_KINDS, default=None,
                       help="request kind to issue")
    query.add_argument("--site", type=int, default=None,
                       help="site index (--kind brknn)")
    query.add_argument("--x", type=float, default=None,
                       help="candidate x (--kind impact)")
    query.add_argument("--y", type=float, default=None,
                       help="candidate y (--kind impact)")
    query.add_argument("--top-t", type=int, default=1,
                       help="distinct regions to return (--kind solve)")
    query.add_argument("--epsilon", type=float, default=0.1,
                       help="approximation bound (--kind solve_anytime)")
    query.add_argument("--nx", type=int, default=32,
                       help="tile columns (--kind heatmap)")
    query.add_argument("--ny", type=int, default=32,
                       help="tile rows (--kind heatmap)")
    query.add_argument("--svg", default=None, metavar="PATH",
                       help="with --kind heatmap: render the tiles to "
                            "an SVG at PATH instead of printing JSON")
    return parser


def _cmd_solve(args) -> int:
    customers = load_points_csv(args.customers)
    sites = load_points_csv(args.sites)
    probability = None
    if args.probability:
        probability = [float(p) for p in args.probability.split(",")]
    weights = None
    if args.weights:
        weights = np.loadtxt(args.weights, delimiter=",", skiprows=0,
                             usecols=0, ndmin=1)
    problem = MaxBRkNNProblem(customers=customers, sites=sites, k=args.k,
                              weights=weights, probability=probability)
    if args.metric == "l1":
        from repro.l1 import solve_l1
        result = solve_l1(problem)
        print(f"L1 optimum: score {result.score:.6g} attained in "
              f"{len(result.regions)} region(s)")
        for i, region in enumerate(result.regions):
            x, y = region.representative_point()
            print(f"  region {i}: area {region.area:.6g}, e.g. location "
                  f"({x:.6g}, {y:.6g})")
        return 0
    from repro.engine import run_pipeline

    options = {}
    if args.solver == "maxfirst":
        options["top_t"] = args.top_t
    elif args.solver == "maxfirst-sharded":
        options["shards"] = args.shards
        options["mode"] = args.shard_mode
        options["max_workers"] = args.pool
    if args.store is not None:
        options["store"] = args.store
    tracing = args.trace is not None
    if tracing:
        from repro.obs.trace import TRACER
        TRACER.reset(enabled=True)
    try:
        result, report = run_pipeline(args.solver, problem, **options)
    finally:
        if tracing:
            TRACER.disable()
    print(result.summary())
    if tracing:
        from repro.obs.export import write_chrome_trace, write_spans_jsonl
        spans = TRACER.finished()
        if args.trace_format == "chrome":
            write_chrome_trace(args.trace, spans)
        else:
            write_spans_jsonl(args.trace, spans)
        print(f"trace ({args.trace_format}, {len(spans)} spans) written "
              f"to {args.trace}")
    if args.metrics is not None:
        from repro.obs.export import write_metrics_json
        write_metrics_json(args.metrics, report.counters, report.gauges,
                           meta={"solver": report.solver,
                                 **report.meta})
        print(f"metrics written to {args.metrics}")
    if args.report is not None:
        if args.report == "-":
            print(report.to_json())
        else:
            report.save(args.report)
            print(f"report written to {args.report}")
    return 0


def _cmd_generate(args) -> int:
    points = _GENERATORS[args.kind](args.n, args.seed)
    save_points_csv(args.output, points)
    print(f"wrote {points.shape[0]} points to {args.output}")
    return 0


def _cmd_bench(args) -> int:
    profile = get_profile(args.scale)
    result = _FIGURES[args.figure](profile)
    print(f"# {result.experiment}  (profile: {profile.name})")
    for key, value in result.meta.items():
        print(f"#   {key}: {value}")
    print(format_table(result.rows))
    numeric = [k for k, v in result.rows[0].items()
               if isinstance(v, (int, float)) and k.endswith("_s")]
    if numeric and len(result.rows) > 1:
        x_key = next(iter(result.rows[0]))
        print()
        print(ascii_chart(
            [row[x_key] for row in result.rows],
            {k: [row.get(k) for row in result.rows] for k in numeric},
            title=f"{result.experiment} (seconds, log scale)"))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.daemon import ServeDaemon

    tracing = args.trace is not None
    if tracing:
        from repro.obs.trace import TRACER
        TRACER.reset(enabled=True)
    kwargs = {}
    if args.cache_bytes is not None:
        kwargs["cache_bytes"] = args.cache_bytes
    daemon = ServeDaemon(host=args.host, port=args.port,
                         store=args.store, **kwargs)
    host, port = daemon.address
    # The smoke harness parses this line to find an ephemeral port, so
    # keep the format stable and flush before blocking.
    print(f"serving on {host}:{port}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.close()
    if tracing:
        from repro.obs.export import write_chrome_trace
        from repro.obs.trace import TRACER
        TRACER.disable()
        spans = TRACER.finished()
        write_chrome_trace(args.trace, spans)
        print(f"trace ({len(spans)} spans) written to {args.trace}")
    if args.metrics is not None:
        from repro.obs import metrics as _obs_metrics
        from repro.obs.export import write_metrics_json
        write_metrics_json(args.metrics,
                           _obs_metrics.REGISTRY.snapshot(),
                           _obs_metrics.REGISTRY.gauges_snapshot(),
                           meta={"component": "serve"})
        print(f"metrics written to {args.metrics}")
    return 0


def _save_heatmap_svg(response, path: str) -> None:
    """Render a served ``heatmap`` response to an SVG file."""
    from repro.core.heatmap import InfluenceHeatmap
    from repro.geometry.rect import Rect
    from repro.viz.heatmap import render_heatmap

    nx, ny = response.nx, response.ny
    heatmap = InfluenceHeatmap(
        space=Rect(*response.bounds), nx=nx, ny=ny,
        lower=np.asarray(response.lower,
                         dtype=np.float64).reshape(ny, nx),
        upper=np.asarray(response.upper,
                         dtype=np.float64).reshape(ny, nx))
    render_heatmap(heatmap).save(path)


def _cmd_query(args) -> int:
    import json as _json

    from repro.serve.client import ServeClient, ServeError
    from repro.serve.protocol import (AnytimeSolveRequest, BrknnRequest,
                                      HeatmapRequest, ImpactRequest,
                                      SiteInfluenceRequest, SolveRequest,
                                      encode_response)

    host, _, port = args.url.rpartition(":")
    if not host or not port.isdigit():
        print(f"--url must be HOST:PORT, got {args.url!r}",
              file=sys.stderr)
        return 2
    with ServeClient(host, int(port)) as client:
        try:
            instance = args.instance
            if args.publish:
                if not args.customers or not args.sites:
                    print("--publish needs --customers and --sites",
                          file=sys.stderr)
                    return 2
                doc = {
                    "customers": load_points_csv(
                        args.customers).tolist(),
                    "sites": load_points_csv(args.sites).tolist(),
                    "k": args.k,
                }
                if args.probability:
                    if "," in args.probability:
                        doc["probability"] = [
                            float(p)
                            for p in args.probability.split(",")]
                    else:
                        doc["probability"] = args.probability
                if args.weights:
                    doc["weights"] = np.loadtxt(
                        args.weights, delimiter=",", usecols=0,
                        ndmin=1).tolist()
                if args.store:
                    doc["store"] = args.store
                instance = client.publish(doc)
                print(f"published instance {instance}")
            if args.kind is None:
                return 0
            if instance is None:
                print("--kind needs --instance (or --publish)",
                      file=sys.stderr)
                return 2
            if args.kind == "brknn":
                if args.site is None:
                    print("--kind brknn needs --site", file=sys.stderr)
                    return 2
                request = BrknnRequest(instance, args.site)
            elif args.kind == "site_influence":
                request = SiteInfluenceRequest(instance)
            elif args.kind == "impact":
                if args.x is None or args.y is None:
                    print("--kind impact needs --x and --y",
                          file=sys.stderr)
                    return 2
                request = ImpactRequest(instance, args.x, args.y)
            elif args.kind == "solve":
                request = SolveRequest(instance, top_t=args.top_t)
            elif args.kind == "heatmap":
                request = HeatmapRequest(instance, nx=args.nx,
                                         ny=args.ny)
            else:
                request = AnytimeSolveRequest(instance, args.epsilon)
            response, = client.query([request])
            if args.kind == "heatmap" and args.svg is not None:
                if response.kind != "heatmap":
                    print(f"serve error: {response!r}", file=sys.stderr)
                    return 1
                _save_heatmap_svg(response, args.svg)
                print(f"heat map written to {args.svg}")
                return 0
            print(_json.dumps(encode_response(response), indent=2))
            return 0
        except ServeError as exc:
            print(f"serve error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
