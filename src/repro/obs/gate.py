"""Counter-based CI perf-regression gate (``python -m repro.obs.gate``).

Wall-clock thresholds on shared CI runners flap; deterministic work
counters do not.  For a fixed instance the MaxFirst solver performs a
bit-identical amount of work (quads generated, splits, Theorem-2/3
prunes, kernel batches) on every machine, so the gate can compare the
current run against a checked-in baseline with a tight band and zero
noise: a counter creeping past the band means the *algorithm* does more
work now, not that the runner was busy.

The gate re-runs the ``tiny``-scale figure-11 arms (site-count sweep,
uniform + normal) and the figure-13 default instance (both
distributions) with the ``maxfirst`` solver — plus the same instances
through the serial (unified-frontier) ``maxfirst-sharded`` solver, whose
counters are equally deterministic and guard the sharding overhead —
flattens the gated counters to ``{arm}/{counter}`` (and
``{arm}/sharded4/{counter}``) keys, and diffs them against
``bench-baselines/counters_tiny.json``:

* a counter **above** ``baseline * (1 + band)`` is a regression → exit 1;
* a counter **below** ``baseline * (1 - band)`` is an improvement → the
  gate passes and prints a hint to re-bless the baseline (with
  ``--write-baseline``) so the win is locked in;
* an arm/counter missing from either side fails — the baseline and the
  arm set must move together.

Gauges (peak RSS, scratch bytes) never enter the gate: they are real
measurements, not deterministic counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "GATED_COUNTERS",
    "SERVE_GATED_COUNTERS",
    "DEFAULT_BAND",
    "DEFAULT_BASELINE",
    "collect_counters",
    "collect_serve_counters",
    "compare",
    "main",
]

#: Counters diffed by the gate, all deterministic for a fixed instance.
#: MaxFirstStats work counters plus the kernel-batch counters from the
#: registry (COUNTER_KEYS) — the latter catch regressions in *how* the
#: classification work is batched, not just how much there is.
GATED_COUNTERS: tuple[str, ...] = (
    "generated",
    "splits",
    "pruned_theorem2",
    "pruned_theorem3",
    "results",
    "point_splits",
    "kernel_batches",
    "kernel_rects",
    "region_grows",
    "phase2_clips",
    "nlc_build_queries",
    "nlc_build_chunks",
)

#: Serve-layer counters pinned by the gate's ``serve`` arm.  They count
#: batch composition, not timing: the scripted workload
#: (:mod:`repro.serve.workload`) has a fixed number of requests and
#: batches, so the arm is exactly as deterministic as the solver arms.
#: The cache counters pin the workload's repeat structure (its
#: repeated-request phase hits, its distinct requests miss, nothing
#: evicts under the default budget), and ``heatmap_tiles_filled`` pins
#: the tessellation rasterised by the heat-map phase.
SERVE_GATED_COUNTERS: tuple[str, ...] = (
    "serve_requests",
    "serve_batches",
    "serve_cache_hits",
    "serve_cache_misses",
    "serve_cache_evictions",
    "heatmap_tiles_filled",
)

DEFAULT_BAND = 0.10
DEFAULT_BASELINE = Path("bench-baselines/counters_tiny.json")


def _arm_problems(scale: str) -> Iterator[tuple[str, Any]]:
    """Yield ``(arm_name, problem)`` for every gated arm.

    Mirrors the fig11 site sweep and the fig13 default instance from
    :mod:`repro.bench.figures` (maxfirst arm only — MaxOverlap's pair
    counters live in its own report and are not gated here).
    """
    # Imported lazily so `repro.obs` itself stays import-light.
    from repro.bench.config import get_profile
    from repro.core.problem import MaxBRkNNProblem
    from repro.datasets.synthetic import synthetic_instance

    profile = get_profile(scale)
    seed = profile.seeds[0]

    def problem(n_sites: int, distribution: str) -> MaxBRkNNProblem:
        customers, sites = synthetic_instance(
            profile.n_customers, n_sites, distribution, seed=seed)
        return MaxBRkNNProblem(customers, sites, k=profile.k)

    for distribution in ("uniform", "normal"):
        for n_sites in profile.sites_sweep:
            yield (f"fig11_{distribution}/sites={n_sites}",
                   problem(n_sites, distribution))
        yield (f"fig13_{distribution}",
               problem(profile.n_sites, distribution))


def collect_counters(scale: str = "tiny") -> dict[str, int]:
    """Solve every gated arm and return flat ``{arm}/{counter}`` values."""
    from repro.engine.registry import run_pipeline

    flat: dict[str, int] = {}
    for arm, problem in _arm_problems(scale):
        _, report = run_pipeline("maxfirst", problem)
        for name in GATED_COUNTERS:
            flat[f"{arm}/{name}"] = int(report.counters[name])
        # The serial sharded solver is deterministic too (one unified
        # frontier, fixed tile grid), so its counters gate the sharding
        # overhead: cut-line tessellation creeping up shows here as
        # `generated` drifting above the blessed baseline.
        _, sharded = run_pipeline("maxfirst-sharded", problem,
                                  shards=4, mode="serial")
        for name in GATED_COUNTERS:
            flat[f"{arm}/sharded4/{name}"] = int(sharded.counters[name])
    return flat


def collect_serve_counters(scale: str = "tiny") -> dict[str, int]:
    """Replay the scripted serve workload; return flat
    ``serve_{scale}/{counter}`` values.

    The workload runs through a :class:`~repro.serve.service
    .QueryService` inside an isolated metrics registry so concurrent
    solver arms cannot leak into the serve numbers (or vice versa).
    """
    from repro.obs import metrics as _obs_metrics
    from repro.serve.service import QueryService
    from repro.serve.workload import scripted_batches, tiny_problem

    with _obs_metrics.REGISTRY.isolated() as box:
        with QueryService(store="ram") as service:
            instance = service.publish(tiny_problem())
            for batch in scripted_batches(instance.instance_id):
                service.execute(batch)
    counters = box["counters"]
    return {f"serve_{scale}/{name}": int(counters.get(name, 0))
            for name in SERVE_GATED_COUNTERS}


def compare(current: Mapping[str, int], baseline: Mapping[str, int],
            *, band: float = DEFAULT_BAND) -> tuple[bool, list[str]]:
    """Diff current counters against the baseline.

    Returns ``(ok, messages)``: ``ok`` is False on any regression or
    key mismatch; improvements keep ``ok`` True but add hint messages.
    """
    messages: list[str] = []
    ok = True

    missing = sorted(set(baseline) - set(current))
    unexpected = sorted(set(current) - set(baseline))
    if missing:
        ok = False
        messages.append(
            f"FAIL: {len(missing)} baseline metric(s) missing from the "
            f"current run (first: {missing[0]}) — arm set drifted; "
            "regenerate the baseline with --write-baseline.")
    if unexpected:
        ok = False
        messages.append(
            f"FAIL: {len(unexpected)} metric(s) absent from the baseline "
            f"(first: {unexpected[0]}) — regenerate the baseline with "
            "--write-baseline.")

    improvements = 0
    for key in sorted(set(current) & set(baseline)):
        cur = current[key]
        base = baseline[key]
        hi = base * (1.0 + band)
        lo = base * (1.0 - band)
        if cur > hi:
            ok = False
            ratio = cur / base if base else float("inf")
            messages.append(
                f"FAIL: {key}: {cur} vs baseline {base} "
                f"(+{(ratio - 1.0) * 100.0:.1f}%, band ±{band * 100.0:.0f}%)"
                " — the solver does more work than the blessed baseline.")
        elif cur < lo:
            improvements += 1
            messages.append(
                f"improved: {key}: {cur} vs baseline {base} "
                f"({(cur / base - 1.0) * 100.0:.1f}%)")
    if improvements and ok:
        messages.append(
            f"{improvements} counter(s) improved beyond the band — "
            "update the baseline to lock the win in: "
            "PYTHONPATH=src python -m repro.obs.gate --scale tiny "
            f"--write-baseline {DEFAULT_BASELINE}")
    return ok, messages


def _load_flat(path: Path) -> dict[str, int]:
    """Read a metrics document, accepting either the flat gate baseline
    (``{"counters": {...}}``) or a bare flat mapping."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    counters = doc.get("counters", doc) if isinstance(doc, dict) else doc
    if not isinstance(counters, dict):
        raise ValueError(f"{path}: expected a JSON object of counters")
    return {str(k): int(v) for k, v in counters.items()}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.gate",
        description="Deterministic-counter perf gate (see docs/observability.md).")
    parser.add_argument("--scale", default="tiny",
                        help="bench scale profile to run (default: tiny)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"baseline JSON to diff against "
                             f"(default: {DEFAULT_BASELINE})")
    parser.add_argument("--band", type=float, default=DEFAULT_BAND,
                        help="allowed relative deviation (default: 0.10)")
    parser.add_argument("--current", type=Path, default=None,
                        help="read current counters from a metrics.json "
                             "instead of re-running the arms")
    parser.add_argument("--out", type=Path, default=None,
                        help="also dump the current counters to this "
                             "metrics.json (CI artifact)")
    parser.add_argument("--write-baseline", type=Path, default=None,
                        metavar="PATH",
                        help="write the current counters as the new "
                             "baseline and exit (no diff)")
    args = parser.parse_args(argv)

    if args.current is not None:
        current = _load_flat(args.current)
    else:
        current = collect_counters(args.scale)
        current.update(collect_serve_counters(args.scale))

    from repro.obs.export import write_metrics_json

    if args.out is not None:
        write_metrics_json(args.out, current,
                           meta={"scale": args.scale,
                                 "gated_counters": list(GATED_COUNTERS)
                                 + list(SERVE_GATED_COUNTERS)})
        print(f"wrote {args.out} ({len(current)} metrics)")

    if args.write_baseline is not None:
        args.write_baseline.parent.mkdir(parents=True, exist_ok=True)
        write_metrics_json(args.write_baseline, current,
                           meta={"scale": args.scale,
                                 "band": args.band,
                                 "gated_counters": list(GATED_COUNTERS)
                                 + list(SERVE_GATED_COUNTERS)})
        print(f"wrote baseline {args.write_baseline} "
              f"({len(current)} metrics)")
        return 0

    if not args.baseline.exists():
        print(f"FAIL: baseline {args.baseline} not found; create it with "
              f"--write-baseline {args.baseline}")
        return 1

    baseline = _load_flat(args.baseline)
    ok, messages = compare(current, baseline, band=args.band)
    for message in messages:
        print(message)
    if ok:
        print(f"perf gate OK: {len(current)} counters within "
              f"±{args.band * 100.0:.0f}% of {args.baseline}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
