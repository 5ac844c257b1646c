"""Staged solver pipelines with uniform instrumentation.

Every solver run decomposes into the same six stages (:data:`~repro.engine.report.STAGES`):

``prepare``
    Construct/validate the solver from its options.
``build_nlcs``
    Problem → scored NLC set (shared pre-processing of every solver).
``index``
    Build the structure the search consults (quadrant classifier, bucket
    grid, shard plan).
``search``
    The solver's core search (Phase I, candidate-point scan, lattice, ...).
``refine``
    Grow/validate the final regions (Phase II).
``finalize``
    Assemble the :class:`~repro.core.result.MaxBRkNNResult` and flatten the
    solver's counters into the report.

A pipeline wires one solver's *public staged pieces* (``run_phase1`` /
``build_regions``, ``build_index`` / ``search`` / ...) into that frame —
no solver logic is duplicated here — and times each stage into a
:class:`~repro.engine.report.RunReport`.  Degenerate instances (no NLCs)
set the result in ``build_nlcs``; later stages are skipped and the report
simply lacks their timings.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.baselines.gridsearch import GridSearch
from repro.baselines.maxoverlap import MaxOverlap, MaxOverlapResult, \
    MaxOverlapStats
from repro.baselines.reference import Reference
from repro.core.bounds import VectorBackend
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs, nlc_space
from repro.core.problem import MaxBRkNNProblem
from repro.core.quadrant import MAXFIRST_COUNTER_KEYS, MaxFirstStats
from repro.core.result import MaxBRkNNResult
from repro.engine.report import RunReport, STAGES
from repro.engine.sharded import ShardedMaxFirst
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span


class PipelineContext:
    """Mutable scratch state threaded through the stages of one run.

    Beyond the three fixed fields, each pipeline hands stage products to
    later stages through the declared scratch slots below; they are
    deliberately loose (``Any``) because their concrete types are
    per-solver (e.g. ``grid`` is a bucket grid for MaxOverlap and unused
    elsewhere).
    """

    # -- stage products (set by one stage, consumed by a later one) ----- #
    nlcs: Any
    space: Any
    resolution: Any
    backend: Any
    accepted: Any
    max_min: Any
    stats: Any
    regions: Any
    plan: Any
    outputs: Any
    tol: Any
    grid: Any
    search: Any
    inner: Any
    store_owner: Any

    def __init__(self, problem: MaxBRkNNProblem,
                 report: RunReport) -> None:
        self.problem = problem
        self.result: MaxBRkNNResult | None = None
        self.report = report


class SolverPipeline:
    """Base staged pipeline: runs the stages in order, timing each.

    Subclasses override the stage methods they need; unused stages default
    to no-ops and show up in the report with (near-)zero cost.  Once a
    stage sets ``ctx.result`` (degenerate instances), the remaining stages
    short-circuit straight to ``finalize``.
    """

    #: Registry name reported in the RunReport.
    name = "solver"

    #: The solver's own stable counter-key set (Phase I stats for
    #: MaxFirst, pair/coverage counts for MaxOverlap, ...).  ``run``
    #: zero-fills these keys — plus the observability registry's
    #: :data:`repro.obs.metrics.COUNTER_KEYS` — into every report, so
    #: degenerate no-NLC instances carry the full schema instead of a
    #: silently empty dict.
    counter_keys: tuple[str, ...] = ()

    def __init__(self, **options: Any) -> None:
        self.options = dict(options)
        #: Requested NLC storage backend (``"ram"`` / ``"memmap"``),
        #: popped here so solver constructors never see it; ``None``
        #: defers to ``REPRO_STORE`` and then ``"ram"``.
        self.store_request: str | None = self.options.pop("store", None)

    def run(self, problem: MaxBRkNNProblem
            ) -> tuple[MaxBRkNNResult, RunReport]:
        """Execute all stages on ``problem``; return (result, report)."""
        report = RunReport(solver=self.name)
        if self.options:
            report.meta["options"] = dict(self.options)
        report.meta["n_customers"] = problem.n_customers
        report.meta["n_sites"] = problem.n_sites
        report.meta["k"] = problem.k
        ctx = PipelineContext(problem, report)
        obs_before = obs_metrics.REGISTRY.snapshot()
        try:
            with span(f"solve/{self.name}"):
                for stage in STAGES:
                    if ctx.result is not None and stage != "finalize":
                        continue
                    t0 = time.perf_counter()
                    with span(f"pipeline/{stage}"):
                        getattr(self, stage)(ctx)
                    report.record_stage(stage, time.perf_counter() - t0)
        finally:
            self.cleanup(ctx)
        if ctx.result is None:
            raise RuntimeError(
                f"pipeline {self.name!r} finished without a result")
        report.score = ctx.result.score
        self._drain_observability(report, obs_before)
        return ctx.result, report

    def _drain_observability(self, report: RunReport,
                             before: dict[str, int]) -> None:
        """Fold the observability registry into the report.

        The solver's own counter keys stay first and keep their values;
        the registry's keys follow, zero-filled so the full schema is
        present even when an instrument never fired (degenerate
        instances, baseline solvers with no indexed search).
        """
        counters: dict[str, float] = dict.fromkeys(self.counter_keys, 0)
        counters.update(obs_metrics.zeroed_counters())
        counters.update(report.counters)
        counters.update(obs_metrics.REGISTRY.delta_since(before))
        report.counters = counters
        report.gauges.update(obs_metrics.REGISTRY.gauges_snapshot())
        rss = obs_metrics.peak_rss_bytes()
        if rss is not None:
            report.gauges["peak_rss_bytes"] = rss

    # -- default stages (no-ops) --------------------------------------- #

    def prepare(self, ctx: PipelineContext) -> None:
        pass

    def build_nlcs(self, ctx: PipelineContext) -> None:
        pass

    def index(self, ctx: PipelineContext) -> None:
        pass

    def search(self, ctx: PipelineContext) -> None:
        pass

    def refine(self, ctx: PipelineContext) -> None:
        pass

    def finalize(self, ctx: PipelineContext) -> None:
        pass

    def cleanup(self, ctx: PipelineContext) -> None:
        """Release solver-held resources (worker pools, stores).

        Runs after the stage loop on both the success and the exception
        path — pipelines that acquire OS-level resources must override
        this (calling ``super().cleanup``) rather than rely on
        ``finalize``, which a raising stage skips.  The base version
        unlinks the store :meth:`_publish_store` opened; the result's
        attached views stay readable — the OS keeps the mapped pages
        alive until the views die.
        """
        owner = getattr(ctx, "store_owner", None)
        if owner is not None:
            ctx.store_owner = None
            from repro import store as nlc_store

            nlc_store.detach()
            owner.close()

    def _publish_store(self, ctx: PipelineContext) -> None:
        """Move the built NLC set into the requested storage backend.

        ``"ram"`` (the default, for in-process work) keeps the
        in-process arrays untouched.  With ``store="memmap"`` the SoA
        arrays are published once into a paged file and every later
        stage reads zero-copy views over it; a solver exposing an
        ``external_store`` slot (the sharded solver) plans, runs and
        merges its tiles — pool workers included — over the published
        handle instead of publishing a second copy.
        """
        from repro import store as nlc_store

        name = nlc_store.resolve_store_name(self.store_request)
        ctx.report.meta["store"] = name
        if name == "ram" or len(ctx.nlcs) == 0:
            return
        owner = nlc_store.publish(ctx.nlcs, name)
        ctx.store_owner = owner
        ctx.nlcs = nlc_store.attach(owner.handle)
        solver = getattr(self, "solver", None)
        if hasattr(solver, "external_store"):
            solver.external_store = owner


class _NlcStageMixin:
    """Shared ``build_nlcs`` stage: every solver starts from the NLC set."""

    def _build_nlcs_stage(self, ctx: PipelineContext, *,
                          keep_zero_score: bool = False,
                          degenerate_stats: MaxFirstStats | None = None
                          ) -> None:
        ctx.nlcs = build_nlcs(ctx.problem, keep_zero_score=keep_zero_score)
        ctx.report.meta["n_nlcs"] = len(ctx.nlcs)
        self._publish_store(ctx)
        if len(ctx.nlcs) == 0:
            # Legal degenerate instance (e.g. all weights zero): short-
            # circuit to finalize with an empty result.
            ctx.result = MaxBRkNNResult(
                score=0.0, regions=(), nlcs=ctx.nlcs,
                space=ctx.problem.data_bounds(), stats=degenerate_stats)


class MaxFirstPipeline(_NlcStageMixin, SolverPipeline):
    """MaxFirst through the staged frame.

    ``index`` builds the quadrant classifier, ``search`` is Phase I
    (:meth:`MaxFirst.run_phase1`), ``refine`` is Phase II
    (:meth:`MaxFirst.build_regions`).  Counters are the Phase I stats.
    """

    name = "maxfirst"
    counter_keys = MAXFIRST_COUNTER_KEYS

    def prepare(self, ctx: PipelineContext) -> None:
        self.solver = MaxFirst(**self.options)

    def build_nlcs(self, ctx: PipelineContext) -> None:
        self._build_nlcs_stage(
            ctx, keep_zero_score=self.solver.keep_zero_score_nlcs,
            degenerate_stats=MaxFirstStats())

    def index(self, ctx: PipelineContext) -> None:
        ctx.space = nlc_space(ctx.nlcs)
        ctx.resolution = (max(ctx.space.width, ctx.space.height)
                          * self.solver.resolution_fraction)
        ctx.backend = VectorBackend(ctx.nlcs, graze_tol=ctx.resolution)

    def search(self, ctx: PipelineContext) -> None:
        ctx.accepted, ctx.max_min, ctx.stats = self.solver.run_phase1(
            ctx.nlcs, ctx.space, backend=ctx.backend,
            resolution=ctx.resolution)

    def refine(self, ctx: PipelineContext) -> None:
        ctx.regions = self.solver.build_regions(
            ctx.accepted, ctx.max_min, ctx.nlcs)

    def finalize(self, ctx: PipelineContext) -> None:
        report = ctx.report
        if ctx.result is not None:  # degenerate: counters stay zero
            report.counters = ctx.result.stats.as_dict()
            return
        ctx.result = MaxBRkNNResult(
            score=ctx.max_min, regions=tuple(ctx.regions), nlcs=ctx.nlcs,
            space=ctx.space, stats=ctx.stats,
            timings={"nlc": report.stages.get("build_nlcs", 0.0),
                     "phase1": (report.stages.get("index", 0.0)
                                + report.stages.get("search", 0.0)),
                     "phase2": report.stages.get("refine", 0.0)})
        report.counters = ctx.stats.as_dict()


class ShardedMaxFirstPipeline(_NlcStageMixin, SolverPipeline):
    """Tile-sharded MaxFirst: ``index`` is the shard plan, ``search`` runs
    the shards, ``refine`` merges and grows regions once per cover."""

    name = "maxfirst-sharded"
    counter_keys = MAXFIRST_COUNTER_KEYS

    def prepare(self, ctx: PipelineContext) -> None:
        self.solver = ShardedMaxFirst(**self.options)

    def build_nlcs(self, ctx: PipelineContext) -> None:
        inner = self.solver._solver
        self._build_nlcs_stage(
            ctx, keep_zero_score=inner.keep_zero_score_nlcs,
            degenerate_stats=MaxFirstStats())

    def index(self, ctx: PipelineContext) -> None:
        ctx.plan = self.solver.plan(ctx.nlcs)
        ctx.report.meta["shards"] = self.solver.shards
        ctx.report.meta["tiles"] = ctx.plan.n_shards
        ctx.report.meta["mode"] = self.solver.mode
        ctx.report.meta["workers"] = (self.solver.max_workers
                                      or min(self.solver.shards,
                                             os.cpu_count() or 1))
        ctx.report.meta["shard_nlcs"] = list(ctx.plan.candidate_counts)

    def search(self, ctx: PipelineContext) -> None:
        ctx.outputs = self.solver.execute(ctx.nlcs, ctx.plan)

    def refine(self, ctx: PipelineContext) -> None:
        ctx.max_min, ctx.regions, ctx.stats = self.solver.merge(
            ctx.nlcs, ctx.outputs)

    def finalize(self, ctx: PipelineContext) -> None:
        report = ctx.report
        if ctx.result is not None:
            report.counters = ctx.result.stats.as_dict()
            return
        ctx.result = MaxBRkNNResult(
            score=ctx.max_min, regions=tuple(ctx.regions), nlcs=ctx.nlcs,
            space=ctx.plan.space, stats=ctx.stats,
            timings={"nlc": report.stages.get("build_nlcs", 0.0),
                     "phase1": (report.stages.get("index", 0.0)
                                + report.stages.get("search", 0.0)),
                     "phase2": report.stages.get("refine", 0.0)})
        report.counters = ctx.stats.as_dict()

    def cleanup(self, ctx: PipelineContext) -> None:
        solver = getattr(self, "solver", None)
        if solver is not None:
            solver.external_store = None
            solver.close()
        super().cleanup(ctx)


class MaxOverlapPipeline(_NlcStageMixin, SolverPipeline):
    """MaxOverlap through the staged frame.

    ``index`` is the bucket grid, ``search`` the candidate-point scan
    (steps (c)-(e)), ``refine`` grows the best covers' regions.
    """

    name = "maxoverlap"
    counter_keys = ("nlc_count", "candidate_pairs", "intersecting_pairs",
                    "intersection_points", "coverage_tests",
                    "distinct_candidates")

    def prepare(self, ctx: PipelineContext) -> None:
        self.solver = MaxOverlap(**self.options)

    def build_nlcs(self, ctx: PipelineContext) -> None:
        self._build_nlcs_stage(
            ctx, keep_zero_score=self.solver.keep_zero_score_nlcs)
        if ctx.result is not None:
            ctx.result = MaxOverlapResult(
                score=0.0, regions=(), nlcs=ctx.nlcs,
                space=ctx.problem.data_bounds(), stats=None,
                overlap_stats=MaxOverlapStats(0, 0, 0, 0, 0, 0))

    def index(self, ctx: PipelineContext) -> None:
        ctx.space = nlc_space(ctx.nlcs)
        ctx.tol = self.solver.resolve_tol(ctx.space)
        ctx.grid = self.solver.build_index(ctx.nlcs)

    def search(self, ctx: PipelineContext) -> None:
        ctx.search = self.solver.search(ctx.nlcs, ctx.grid, ctx.tol)

    def refine(self, ctx: PipelineContext) -> None:
        ctx.regions = self.solver.build_regions(
            ctx.nlcs, ctx.grid, ctx.search, ctx.tol)

    def finalize(self, ctx: PipelineContext) -> None:
        report = ctx.report
        if ctx.result is not None:
            report.counters = _overlap_counters(ctx.result.overlap_stats)
            return
        search = ctx.search
        # Preserve solve_nlcs's historical timing split: pair work spans
        # grid construction plus search's enumeration/dedup prefix.
        pairs = report.stages.get("index", 0.0) + search.pairs_seconds
        coverage = report.stages.get("search", 0.0) - search.pairs_seconds
        ctx.result = MaxOverlapResult(
            score=search.best, regions=tuple(ctx.regions), nlcs=ctx.nlcs,
            space=ctx.space, stats=None, overlap_stats=search.stats,
            timings={"nlc": report.stages.get("build_nlcs", 0.0),
                     "pairs": pairs, "coverage": coverage,
                     "region": report.stages.get("refine", 0.0)})
        report.counters = _overlap_counters(search.stats)


class GridSearchPipeline(_NlcStageMixin, SolverPipeline):
    """Lattice baseline: the whole scan is the ``search`` stage."""

    name = "gridsearch"
    counter_keys = ("samples",)

    def prepare(self, ctx: PipelineContext) -> None:
        self.solver = GridSearch(**self.options)

    def build_nlcs(self, ctx: PipelineContext) -> None:
        self._build_nlcs_stage(ctx)

    def index(self, ctx: PipelineContext) -> None:
        ctx.space = nlc_space(ctx.nlcs)

    def search(self, ctx: PipelineContext) -> None:
        ctx.inner = self.solver.solve_nlcs(ctx.nlcs, ctx.space)

    def finalize(self, ctx: PipelineContext) -> None:
        report = ctx.report
        if ctx.result is not None:
            return
        inner = ctx.inner
        ctx.result = MaxBRkNNResult(
            score=inner.score, regions=inner.regions, nlcs=ctx.nlcs,
            space=ctx.space,
            timings={"nlc": report.stages.get("build_nlcs", 0.0),
                     "search": report.stages.get("search", 0.0)})
        report.counters = {
            "samples": self.solver.samples_per_axis ** 2,
        }


class ReferencePipeline(_NlcStageMixin, SolverPipeline):
    """Brute-force ground truth: the refinement scan is ``search``."""

    name = "reference"
    counter_keys = ("optimal_locations",)

    def prepare(self, ctx: PipelineContext) -> None:
        self.solver = Reference(**self.options)

    def build_nlcs(self, ctx: PipelineContext) -> None:
        self._build_nlcs_stage(ctx)

    def index(self, ctx: PipelineContext) -> None:
        ctx.space = nlc_space(ctx.nlcs)

    def search(self, ctx: PipelineContext) -> None:
        ctx.inner = self.solver.solve_nlcs(ctx.nlcs, ctx.space)

    def finalize(self, ctx: PipelineContext) -> None:
        report = ctx.report
        if ctx.result is not None:
            return
        inner = ctx.inner
        ctx.result = MaxBRkNNResult(
            score=inner.score, regions=inner.regions, nlcs=ctx.nlcs,
            space=ctx.space,
            timings={"nlc": report.stages.get("build_nlcs", 0.0),
                     "search": report.stages.get("search", 0.0)})
        report.counters = {"optimal_locations": len(inner.regions)}


def _overlap_counters(stats: MaxOverlapStats | None) -> dict[str, int]:
    if stats is None:
        return {}
    return {
        "nlc_count": stats.nlc_count,
        "candidate_pairs": stats.candidate_pairs,
        "intersecting_pairs": stats.intersecting_pairs,
        "intersection_points": stats.intersection_points,
        "coverage_tests": stats.coverage_tests,
        "distinct_candidates": stats.distinct_candidates,
    }
