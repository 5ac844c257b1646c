"""End-to-end benchmark with per-layer attribution.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--trace 0|1] [--out DIR] [--smoke]

Workloads (README.md says why each exists):

* ``solve-dense``  — fresh 10k-customer instances, CSV -> regions;
* ``scale-stream`` — 1M-customer streamed build into memmap, then
  streamed solves over it;
* ``serve-hot``    — two closed-loop clients reading prewarmed keys;
* ``serve-miss``   — two closed-loop clients sending only fresh keys.

Each workload runs in fresh processes: two set-up-only processes and
one measuring process, so ``setup_s`` is the median of three set-ups
and peak RSS is the workload's own.  Every answer is checked before
anything is reported; a failed check or a failed operation exits
non-zero with no result.  Each workload measures for BENCHMARK.json's
``run_seconds`` (1.5 s with ``--smoke``); ``--seconds`` accepts only
that value, so two runs being compared cannot differ in length.
The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the ``end_to_end`` metrics of BENCHMARK.json,
or with ``--trace 1`` its ``per_layer`` metrics from a separate traced
run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from harness import machine_record, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUPS = 3
#: Whole-run deadline, under the 180 s one invocation may take.
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def child_env(out: Path) -> dict[str, str]:
    """Point every cache, temp file and store file into ``out``."""
    env = dict(os.environ)
    work = out / "work"
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work),
               REPRO_STORE_DIR=str(work), XDG_CACHE_HOME=str(out / "cache"))
    env.pop("REPRO_STORE", None)
    return env


class Child:
    """One ``child.py`` process: time-to-READY, then its RESULT."""

    def __init__(self, args: list[str], env: dict[str, str],
                 deadline: float) -> None:
        self.lines: dict[str, Any] = {}
        t0 = time.perf_counter()
        # A session of its own, so a timeout kills the child together
        # with any daemon it started.
        # repro: unguarded-load(children inherit the environment,
        # REPRO_NO_CKERNEL included, and load kernels through the gated
        # loaders)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                self._kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                tag, _, doc = line.partition(" ")
                if tag == "READY":
                    self.lines["ready_s"] = time.perf_counter() - t0
                if tag in ("READY", "RESULT", "KERNEL"):
                    self.lines[tag] = json.loads(doc)
        except BaseException:
            self._kill()
            raise
        finally:
            timer.cancel()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RunFailed(f"child {' '.join(args)} exited "
                            f"{self.proc.returncode}")

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_workload(name: str, args: argparse.Namespace, env: dict[str, str],
                 deadline: float) -> dict[str, Any]:
    base = ["--workload", name, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--out",
            str(args.out)] + (["--smoke"] if args.smoke else [])
    setups = [Child(base + ["--setup-only"], env, deadline)
              for _ in range(SETUPS - 1)]
    t0 = time.perf_counter()
    main = Child(base, env, deadline)
    setups.append(main)
    result = main.lines["RESULT"]
    result["setup_s"] = [c.lines["ready_s"] for c in setups]
    result["duration_s"] = time.perf_counter() - t0
    return result


def end_to_end(r: dict[str, Any]) -> dict[str, float]:
    return {"setup_s": median(r["setup_s"]),
            "cpu_per_op": r["cpu_units"] / r["ops"],
            "peak_rss_mb": r["peak_rss_mb"]}


def describe(name: str, r: dict[str, Any], trace: bool) -> list[str]:
    """Human-readable report lines for one workload."""
    lat = r["latencies_s"]
    failed = sum(r["failures"].values())
    lines = [f"== {name}  ({r['duration_s']:.1f}s wall)",
             f"  ops attempted/failed: {r['attempted']}/{failed}  "
             f"error_rate {r['error_rate']:.4f}"]
    for check in r["checks"]:
        lines.append(f"  check: {check}")
    if trace:
        table = r["layers"]["self_time"]
        wall = table["wall_s"]
        lines.append(f"  self time over {wall:.3f}s of traced operations:")
        for layer, t in sorted(table["self_s"].items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:28s} {t:9.4f}s  {100 * t / wall:5.1f}%")
        overhead = r["layers"]["metrics"]["trace.overhead_pct"]
        lines.append(f"  tracing overhead {overhead:+.1f}% (mean operation "
                     f"time, traced vs untraced half)")
        return lines
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    counts = {"setup_s": len(r["setup_s"]), "cpu_per_op": r["ops"],
              "peak_rss_mb": 1}
    for metric, value in end_to_end(r).items():
        lines.append(f"  {metric:16s} {value:12.4f} {units[metric]:6s} "
                     f"(n={counts[metric]})")
    # Wall-clock figures follow the host's speed phases, so they are
    # printed but are not metrics.  The tail is the highest percentile
    # the sample supports: p99 on the serve workloads, p90 on
    # solve-dense, none on scale-stream.
    refs = r["reference_s"]
    lines.append(f"  reference_ms     {median(refs) * 1e3:12.4f} ms     "
                 f"(n={len(refs)}, the unit of cpu_per_op)")
    lines.append(f"  latency_p50_ms   {median(lat) * 1e3:12.4f} ms     "
                 f"(n={len(lat)}, informational)")
    for q in (99, 90):
        try:
            lines.append(f"  latency_p{q}_ms   {percentile(lat, q) * 1e3:12.4f}"
                         f" ms     (n={len(lat)}, informational)")
            break
        except ValueError as exc:
            refused = str(exc)
    else:
        lines.append(f"  latency_p90_ms   refused: {refused}")
    lines.append(f"  qps              {r['ops'] / r['busy_s']:12.4f} 1/s    "
                 f"(n={r['ops']}, informational)")
    if r.get("build_s"):
        lines.append(f"  build_s          {median(r['build_s']):12.4f} s      "
                     f"(n={len(r['build_s'])}, informational)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = float(SPEC["run_seconds"])
    parser.add_argument("--seconds", type=float, choices=(run_seconds,),
                        default=run_seconds,
                        help="measured seconds per workload: only "
                             "BENCHMARK.json's run_seconds is accepted")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="artifact directory (reports, traces, "
                             "stores, kernel cache)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and 1.5 s per workload, for "
                             "the harness tests")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 1.5
    args.out = args.out.resolve()
    work = args.out / "work"
    work.mkdir(parents=True, exist_ok=True)
    for stale in work.glob("repro-nlc-*"):  # from a run that was killed
        stale.unlink()
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(args.out)
    names = [args.workload] if args.workload else WORKLOADS
    try:
        kernel = Child(["--kernel"], env, deadline).lines["KERNEL"]
        results = {name: run_workload(name, args, env, deadline)
                   for name in names}
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    leftovers = sorted(p.name for p in work.glob("repro-nlc-*"))
    if leftovers:
        print(f"benchmark failed: store files left behind: {leftovers}",
              file=sys.stderr)
        return 1
    # A failed operation is never served, so the answer checks cannot
    # see it; the workloads are chosen so that none fails.
    failed = {name: r["failures"] for name, r in results.items()
              if r["failures"]}
    if failed:
        print(f"benchmark failed: failed operations {failed}",
              file=sys.stderr)
        return 1
    machine = machine_record(
        ROOT, numpy=kernel["numpy"], kernel=kernel["arm"],
        store={"solve-dense": "ram", "scale-stream": "memmap",
               "serve-hot": "memmap", "serve-miss": "memmap"},
        seed=args.seed, seconds=args.seconds, smoke=args.smoke,
        durations_s={n: round(r["duration_s"], 3) for n, r in results.items()})
    print("machine: " + json.dumps(machine, sort_keys=True))
    trace = bool(args.trace)
    metrics: dict[str, dict[str, Any]] = {}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name, r in results.items():
        print("\n".join(describe(name, r, trace)))
        values = r["layers"]["metrics"] if trace else end_to_end(r)
        prefix = "" if args.workload else f"{name}."
        for m in spec:
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0.0),
                                           "unit": m["unit"]}
    report = {"machine": machine, "workloads": results, "metrics": metrics}
    stem = args.workload or "all"
    path = args.out / f"report-{stem}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"report: {path}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(sum(r["failures"].values()) for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
