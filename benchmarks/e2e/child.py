"""One workload process of the end-to-end benchmark.

``run.py`` starts this script once per set-up sample.  It sets the
workload up (imports, compiled-kernel load, warm-up; for the serve
workloads also daemon boot, ``/publish`` and prewarm), prints ``READY``,
and — unless ``--setup-only`` — measures, stops every process it
started, checks every answer, and prints ``RESULT``.  A failed check
exits non-zero without a ``RESULT`` line.

Protocol lines on stdout (anything else goes to stderr)::

    READY {}
    RESULT {...segment, layers, checks...}

``--write-golden`` regenerates ``golden.json`` for the default seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from harness import Tracer, chrome_events  # noqa: E402

GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0


def _emit(tag: str, doc: dict) -> None:
    print(f"{tag} {json.dumps(doc)}", flush=True)


def make_workload(args: argparse.Namespace):
    """Import only the workload's own modules (their import time is part
    of set-up) and build it."""
    if args.workload in ("serve-hot", "serve-miss"):
        from serveload import ServeHot, ServeMiss

        cls = ServeHot if args.workload == "serve-hot" else ServeMiss
        return cls(args.seed, args.smoke, Path(args.out),
                   traced=bool(args.trace))
    from batch import ScaleStream, SolveDense

    cls = SolveDense if args.workload == "solve-dense" else ScaleStream
    golden = None
    if args.seed == DEFAULT_SEED:
        key = cls.name + ("/smoke" if args.smoke else "")
        golden = json.loads(GOLDEN.read_text())[key]
    return cls(args.seed, args.smoke, Path(args.out) / "work", golden)


def load_kernels() -> str:
    """Load (building on first use) the compiled kernels; returns the
    kernel arm actually in use."""
    from repro.index._ckernel import load_knn_kernel, load_quad_kernel

    # repro: unguarded-load(the loaders themselves honour
    # REPRO_NO_CKERNEL; this only reports which arm the run used)
    compiled = load_quad_kernel() is not None and load_knn_kernel() is not None
    return "compiled" if compiled else "numpy"


def measure(workload, args: argparse.Namespace) -> dict:
    """The timed run, then teardown (the daemon writes its trace on
    exit).  With ``--trace`` the first half runs untraced and the second
    traced; their mean operation times give the harness's tracing
    overhead.  A serve daemon traces both halves, so its own tracing
    cost is not part of that figure."""
    if not args.trace:
        segment = workload.measure(args.seconds, Tracer(False))
        segment.update(workload.finish())
        return segment
    plain = workload.measure(args.seconds / 2, Tracer(False))
    tracer = Tracer(True)
    segment = workload.measure(args.seconds / 2, tracer)
    segment.update(workload.finish())
    layers = workload.layers(segment, tracer)
    mean = lambda s: sum(s["latencies_s"]) / len(s["latencies_s"])  # noqa: E731
    layers["metrics"]["trace.overhead_pct"] = (
        (mean(segment) / mean(plain) - 1.0) * 100.0)
    trace = Path(args.out) / f"trace-{args.workload}.json"
    trace.write_text(json.dumps(chrome_events(tracer.spans)) + "\n")
    segment["layers"] = layers
    return segment


def write_golden(args: argparse.Namespace) -> int:
    from batch import ScaleStream, SolveDense

    work = Path(args.out) / "work"
    work.mkdir(parents=True, exist_ok=True)
    golden = {}
    for smoke in (False, True):
        for cls in (SolveDense, ScaleStream):
            key = cls.name + ("/smoke" if smoke else "")
            golden[key] = cls(DEFAULT_SEED, smoke, work, None).golden_answers()
    # One answer per line keeps diffs of the file readable.
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: [\n"
        + ",\n".join("  " + json.dumps(a, sort_keys=True) for a in answers)
        + "\n ]" for key, answers in sorted(golden.items())) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (run.py always passes it)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--kernel", action="store_true",
                        help="only load/build the compiled kernels")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"repro imported from {repro.__file__}, not the checkout")
    if args.kernel:
        import numpy

        _emit("KERNEL", {"arm": load_kernels(), "numpy": numpy.__version__})
        return 0
    if args.write_golden:
        return write_golden(args)

    workload = make_workload(args)
    try:
        load_kernels()
        _emit("READY", workload.setup())
        if args.setup_only:
            return 0
        segment = measure(workload, args)
        segment["attempted"] = workload.ledger.attempted
        segment["failures"] = dict(workload.ledger.failures)
        segment["error_rate"] = workload.ledger.error_rate
        segment["checks"] = workload.check()
        _emit("RESULT", segment)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
