"""The in-process workloads: ``solve-dense`` and ``scale-stream``.

Both drive the program through its public functions only, and every
call that belongs to a layer runs inside a harness span named after
that layer (see README.md for the module-to-layer list).  With the
tracer disabled the spans cost one generator frame each.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

import repro.engine.outofcore as outofcore
from harness import (Ledger, Tracer, canonical, peak_rss_mb, self_times,
                     timed_loop)
from reference import CpuCost, Reference
from repro import store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs, nlc_space, stream_nlc_chunks
from repro.core.probability import ProbabilityModel
from repro.core.problem import MaxBRkNNProblem
from repro.core.result import MaxBRkNNResult
from repro.core.verify import verify_result
from repro.datasets.loader import load_points_csv, save_points_csv
from repro.datasets.synthetic import (normal_points, striped_uniform_chunks,
                                      uniform_points)
from repro.obs.metrics import REGISTRY

#: Seed of the inputs that do not follow ``--seed``: the warm-up
#: instances, and scale-stream's sites and hot strip.
FIXTURE_SEED = 101


class CheckFailed(AssertionError):
    """An answer differed from its reference; the run reports nothing."""


def answer(score: float, regions: Iterable[Any]) -> dict[str, Any]:
    """A solve's identity: the exact score repr and its sorted covers,
    pinned by digest (a dense optimum is covered by ~2000 NLCs)."""
    covers = sorted(sorted(int(i) for i in r.cover) for r in regions)
    return {"score": repr(float(score)),
            "cover_sizes": [len(c) for c in covers],
            "covers_sha256": hashlib.sha256(
                canonical(covers).encode("ascii")).hexdigest()}


def _spanned(tracer: Tracer, name: str, items: Iterable[Any]) -> Iterator[Any]:
    """Re-yield ``items``, timing each pull from the producer as ``name``."""
    it = iter(items)
    end = object()
    while True:
        with tracer.span(name):
            item = next(it, end)
        if item is end:
            return
        yield item


def _add_counts(counts: dict[str, float], **values: float) -> None:
    for key, value in values.items():
        counts[key] = counts.get(key, 0) + value


def _solve_counts(counts: dict[str, float], stats: Any,
                  before: dict[str, int]) -> None:
    """Phase I stats and registry counter deltas of one solve."""
    delta = REGISTRY.delta_since(before)
    _add_counts(counts, **{
        "core.maxfirst.generated": stats.generated,
        "core.maxfirst.splits": stats.splits,
        "index.kernel_batches": delta.get("kernel_batches", 0),
        "core.region.clips": delta.get("phase2_clips", 0)})


#: Per-layer time metric -> the harness span it sums.
LAYER_SPANS = {
    "core.maxfirst.phase1_s": "core.maxfirst.phase1",
    "core.nlc.build_s": "core.nlc.build",
    "engine.outofcore.plan_s": "engine.outofcore.plan",
    "datasets.load_s": "datasets.load",
    "store.write_s": "store.write",
    "core.region.phase2_s": "core.region.phase2",
}


def batch_layers(counts: dict[str, float], tracer: Tracer) -> dict[str, Any]:
    """Per-layer metrics and the self-time table of a traced segment.

    A layer time is the mean inclusive seconds per operation that
    called the layer; the root (``op.*``) spans' own self time is the
    ``unattributed`` row.
    """
    totals: dict[str, float] = {}
    ops: dict[str, set] = {}
    for s in tracer.spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.dur
        ops.setdefault(s.name, set()).add(s.rid)
    metrics = dict(counts)
    for metric, name in LAYER_SPANS.items():
        metrics[metric] = totals[name] / len(ops[name]) if name in ops else 0.0
    own = self_times(tracer.spans)
    table = {name: t for name, t in own.items() if not name.startswith("op.")}
    table["unattributed"] = sum(t for name, t in own.items()
                                if name.startswith("op."))
    wall = sum(t for name, t in totals.items() if name.startswith("op."))
    metrics["trace.attributed_share"] = 1.0 - table["unattributed"] / wall
    return {"metrics": metrics, "self_time": {"wall_s": wall, "self_s": table}}


# --------------------------------------------------------------------- #
# solve-dense
# --------------------------------------------------------------------- #

class SolveDense:
    """One fresh seeded instance per solve, CSV through to regions.

    Phase I does most of the work here; NLC build and CSV load share
    the rest.  Instance ``i`` of seed ``s`` comes from
    ``default_rng([s, i])``, so golden answers are per index.
    """

    name = "solve-dense"
    FULL = {"customers": 10_000, "sites": 1000, "k": 4}
    SMOKE = {"customers": 3_000, "sites": 60, "k": 4}

    def __init__(self, seed: int, smoke: bool, work: Path,
                 golden: list[dict[str, Any]] | None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.size = self.SMOKE if smoke else self.FULL
        self.work = work
        self.golden = golden
        self.next_index = 0
        self.ledger = Ledger()
        self.answers: list[dict[str, Any]] = []
        self.first: MaxBRkNNResult | None = None

    def _instance(self, entropy: list[int], size: dict[str, int]
                  ) -> tuple[Path, Path, np.ndarray]:
        rng = np.random.default_rng(entropy)
        customers = normal_points(size["customers"], rng)
        sites = normal_points(size["sites"], rng)
        weights = rng.uniform(0.5, 1.5, size["customers"])
        cpath = self.work / "customers.csv"
        spath = self.work / "sites.csv"
        save_points_csv(cpath, customers)
        save_points_csv(spath, sites)
        return cpath, spath, weights

    def _solve(self, tracer: Tracer, instance: tuple[Path, Path, np.ndarray],
               k: int) -> MaxBRkNNResult:
        cpath, spath, weights = instance
        with tracer.span("datasets.load"):
            customers = load_points_csv(cpath)
            sites = load_points_csv(spath)
        with tracer.span("core.problem"):
            problem = MaxBRkNNProblem(customers, sites, k=k, weights=weights,
                                      probability=ProbabilityModel.linear(k))
        with tracer.span("core.nlc.build"):
            nlcs = build_nlcs(problem)
        with tracer.span("store.write"):
            owner = store.publish(nlcs, "ram")
            views = store.attach(owner.handle)
        try:
            with tracer.span("core.maxfirst.phase1"):
                solver = MaxFirst()
                space = nlc_space(views)
                accepted, max_min, stats = solver.run_phase1(views, space)
            with tracer.span("core.region.phase2"):
                regions = solver.build_regions(accepted, max_min, views)
        finally:
            with tracer.span("store.release"):
                del views
                store.detach()
                owner.close()
        return MaxBRkNNResult(score=max_min, regions=tuple(regions),
                              nlcs=nlcs, space=space, stats=stats)

    def setup(self) -> dict[str, Any]:
        warm = self._instance([FIXTURE_SEED, 0], self.SMOKE)
        self._solve(Tracer(False), warm, self.SMOKE["k"])
        return {}

    def measure(self, seconds: float, tracer: Tracer) -> dict[str, Any]:
        latencies: list[float] = []
        counts: dict[str, float] = {}
        cost = CpuCost(Reference())

        def step() -> None:
            i = self.next_index
            self.next_index += 1
            instance = self._instance([self.seed, i], self.size)
            before = REGISTRY.snapshot()
            t0, c0 = time.perf_counter(), time.process_time()
            with tracer.span("op.solve", rid=i + 1):
                result = self._solve(tracer, instance, self.size["k"])
            latencies.append(time.perf_counter() - t0)
            cost.add(time.process_time() - c0)
            self.ledger.ok()
            self.answers.append(answer(result.score, result.regions))
            if self.first is None:
                self.first = result
            _solve_counts(counts, result.stats, before)
            _add_counts(counts, **{
                "core.nlc.rows": len(result.nlcs),
                "store.bytes": store.store_nbytes(len(result.nlcs))})

        ops, wall = timed_loop(seconds, step)
        return {"latencies_s": latencies, "ops": ops,
                "busy_s": sum(latencies), "wall_s": wall,
                "cpu_units": cost.units, "reference_s": cost.refs,
                "counts": {k: v / ops for k, v in counts.items()}}

    def layers(self, segment: dict[str, Any], tracer: Tracer
               ) -> dict[str, Any]:
        return batch_layers(segment["counts"], tracer)

    def finish(self) -> dict[str, Any]:
        return {"peak_rss_mb": peak_rss_mb()}

    def check(self) -> list[str]:
        """Golden answers for the default seed; an independent audit of
        the first solve on every seed."""
        done = []
        if self.golden is not None:
            for i, (got, want) in enumerate(zip(self.answers, self.golden)):
                if got != want:
                    raise CheckFailed(
                        f"{self.name} solve {i}: {got} != golden {want}")
            done.append(f"golden: {min(len(self.answers), len(self.golden))}"
                        f" solves identical")
        report = verify_result(self.first, samples=256, region_probes=8,
                               seed=self.seed)
        if not report.ok:
            raise CheckFailed(f"{self.name} verify_result: "
                              f"{'; '.join(report.issues)}")
        done.append("verify_result: first solve audited")
        return done

    def golden_answers(self) -> list[dict[str, Any]]:
        """Answers to the first instances of this seed (more than a
        default-length run solves)."""
        count = 8 if self.smoke else 240
        return [answer(r.score, r.regions) for r in (
            self._solve(Tracer(False), self._instance([self.seed, i],
                                                      self.size),
                        self.size["k"]) for i in range(count))]

    def close(self) -> None:
        """Nothing outlives a solve."""


# --------------------------------------------------------------------- #
# scale-stream
# --------------------------------------------------------------------- #

class ScaleStream:
    """Streamed NLC build into a memmap store, then two streamed solves
    on it, repeated.

    The instance has ``bench_scale.py``'s shape: x-sorted striped
    customers, uniform sites, and a first strip ~1000x heavier than the
    rest, which keeps Phase I small so build and planning dominate.
    The sites and the hot strip are fixtures: Phase I's work is set by
    the hot strip and varies 25x between random ones (664 to 17248
    quadrants over ten seeds).  The seed draws the other strips.
    """

    name = "scale-stream"
    FULL = {"customers": 1_000_000, "sites": 1024, "strips": 1024,
            "shards": 64}
    SMOKE = {"customers": 40_000, "sites": 128, "strips": 128, "shards": 16}
    WARM = {"customers": 20_000, "sites": 128, "strips": 64, "shards": 4}
    SOLVES_PER_BUILD = 2

    def __init__(self, seed: int, smoke: bool, work: Path,
                 golden: list[dict[str, Any]] | None) -> None:
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.golden = golden
        self.rid = 0
        self.ledger = Ledger()
        self.stores: list[list[dict[str, Any]]] = []

    def _customers(self, size: dict[str, int], seed: int) -> Iterator[Any]:
        n, strips = size["customers"], size["strips"]
        hot = striped_uniform_chunks(n, strips, seed=FIXTURE_SEED)
        rest = striped_uniform_chunks(n, strips, seed=seed)
        return itertools.chain(itertools.islice(hot, 1),
                               itertools.islice(rest, 1, None))

    def _weights(self, size: dict[str, int], seed: int) -> Iterator[Any]:
        base, extra = divmod(size["customers"], size["strips"])
        for j in range(size["strips"]):
            rng = np.random.default_rng([FIXTURE_SEED if j == 0 else seed,
                                         1, j])
            factor = 1.0 if j == 0 else 0.001
            yield rng.uniform(0.5, 1.5, base + (j < extra)) * factor

    def _build(self, tracer: Tracer, size: dict[str, int], seed: int) -> Any:
        sites = uniform_points(size["sites"],
                               np.random.default_rng([FIXTURE_SEED, 0]))
        customers = _spanned(tracer, "datasets.generate",
                             self._customers(size, seed))
        weights = _spanned(tracer, "datasets.generate",
                           self._weights(size, seed))
        chunks = stream_nlc_chunks(customers, sites, 1, weight_chunks=weights)
        writer = store.writer(size["customers"], "memmap")
        try:
            for chunk in _spanned(tracer, "core.nlc.build", chunks):
                with tracer.span("store.write"):
                    writer.append(chunk)
            with tracer.span("store.write"):
                return writer.finalize()
        except BaseException:
            writer.abort()
            raise

    def _cycle(self, tracer: Tracer, size: dict[str, int], seed: int,
               sink: dict[str, Any]) -> None:
        """One build and its solves, timed into ``sink``."""
        self.rid += 1
        t0, c0 = time.perf_counter(), time.process_time()
        with tracer.span("op.build", rid=self.rid):
            owner = self._build(tracer, size, seed)
        sink["build_s"].append(time.perf_counter() - t0)
        sink["cost"].add(time.process_time() - c0)
        answers: list[dict[str, Any]] = []
        try:
            for _ in range(self.SOLVES_PER_BUILD):
                self.rid += 1
                before = REGISTRY.snapshot()
                t0, c0 = time.perf_counter(), time.process_time()
                with tracer.span("op.solve", rid=self.rid):
                    with tracer.span("engine.outofcore.plan"):
                        plan = outofcore.plan_streamed(owner.handle,
                                                       size["shards"])
                    with tracer.span("engine.outofcore.solve"):
                        result = outofcore.solve_streamed(
                            owner.handle, shards=size["shards"], plan=plan)
                sink["latencies_s"].append(time.perf_counter() - t0)
                sink["cost"].add(time.process_time() - c0)
                answers.append(answer(result.score, result.regions))
                _solve_counts(sink["solve_counts"], result.stats, before)
                _add_counts(sink["solve_counts"],
                            **{"engine.outofcore.tiles": plan.n_shards})
                del result  # holds a full attachment of the store
        finally:
            store.detach()
            _add_counts(sink["build_counts"], **{
                "core.nlc.rows": owner.length, "store.bytes": owner.nbytes})
            owner.close()
        self.stores.append(answers)

    @staticmethod
    def _sink() -> dict[str, Any]:
        return {"latencies_s": [], "build_s": [], "solve_counts": {},
                "build_counts": {}, "cost": CpuCost(Reference())}

    def setup(self) -> dict[str, Any]:
        self._cycle(Tracer(False), self.WARM, FIXTURE_SEED, self._sink())
        self.stores.clear()
        return {}

    def measure(self, seconds: float, tracer: Tracer) -> dict[str, Any]:
        sink = self._sink()
        # The calls solve_streamed makes into other layers, timed from
        # outside by wrapping the public names it calls through.
        with contextlib.ExitStack() as patches:
            for owner, attr, name in (
                    (MaxFirst, "run_phase1", "core.maxfirst.phase1"),
                    (outofcore, "compute_optimal_region",
                     "core.region.phase2"),
                    (store, "attach_slice", "store.attach"),
                    (store, "attach", "store.attach")):
                patches.enter_context(tracer.wrap(owner, attr, name))
            builds, wall = timed_loop(
                seconds,
                lambda: self._cycle(tracer, self.size, self.seed, sink))
        solves = len(sink["latencies_s"])
        for _ in range(solves):
            self.ledger.ok()
        counts = {k: v / solves for k, v in sink["solve_counts"].items()}
        counts.update((k, v / builds) for k, v in sink["build_counts"].items())
        return {"latencies_s": sink["latencies_s"],
                "build_s": sink["build_s"], "ops": solves,
                "busy_s": sum(sink["latencies_s"]) + sum(sink["build_s"]),
                "wall_s": wall, "cpu_units": sink["cost"].units,
                "reference_s": sink["cost"].refs, "counts": counts}

    def layers(self, segment: dict[str, Any], tracer: Tracer
               ) -> dict[str, Any]:
        return batch_layers(segment["counts"], tracer)

    def finish(self) -> dict[str, Any]:
        return {"peak_rss_mb": peak_rss_mb()}

    def check(self) -> list[str]:
        """Every solve equals its store's first solve; for the default
        seed the first solve also equals the golden answer."""
        for n, answers in enumerate(self.stores):
            if any(got != answers[0] for got in answers[1:]):
                raise CheckFailed(f"{self.name} store {n}: a repeat solve "
                                  f"differs from the first")
        done = [f"self-consistent: {len(self.stores)} stores"]
        if self.golden is not None:
            for n, answers in enumerate(self.stores):
                if answers[0] != self.golden[0]:
                    raise CheckFailed(f"{self.name} store {n}: {answers[0]}"
                                      f" != golden {self.golden[0]}")
            done.append("golden: identical")
        return done

    def golden_answers(self) -> list[dict[str, Any]]:
        self._cycle(Tracer(False), self.size, self.seed, self._sink())
        return self.stores.pop()[:1]

    def close(self) -> None:
        """Nothing outlives a cycle."""
