"""Tile-sharded parallel Phase I.

Partitions the data rectangle into a grid of tiles, assigns each tile the
NLCs whose disks intersect it (its halo, found by the tile engine's
grid-binned planning pass, which applies
:meth:`~repro.index.circleset.CircleSet.rects_intersecting`'s open-disk
test to just the disk/tile pairs whose bounding boxes meet and keeps
each tile's halo in the plan), runs MaxFirst's Phase I per tile over
its halo, and merges the tiles' found regions before a single Phase II
pass over the whole set grows each distinct region once.  The planner,
the per-tile executor and the merge are the tile engine of
:mod:`repro.engine.outofcore`; this module picks how the tiles run.

Why this is exact
-----------------
Every optimal region is full-dimensional, so its interior meets the
interior of at least one tile; the shard owning that tile accepts a
consistent quadrant with exactly the region's cover.  A quadrant's score
bounds are sums over index-sorted NLC subsets, and every shard classifies
with the *global* space's graze tolerance, so a cover discovered in a
shard produces bit-for-bit the same ``m̂in`` sum the single-process run
computes for it — the merged optimal score and the deduplicated cover set
are identical to the one-process ``hotpath=batched`` run (asserted in
every mode by ``tests/engine/test_sharded_identity.py`` and on every
timed point of ``benchmarks/bench_sharding.py``).

Shards exchange a global lower bound (the best proven ``m̂in`` anywhere):
each worker seeds ``MaxMin`` with the bound at start and polls/publishes
it every ``sync_interval`` pops, so losing shards terminate early via
Theorem 2.  Bounds are only ever values witnessed by a real quadrant in
some shard, which keeps the pruning sound; winners are never pruned
because Theorem 2's cut is strict below the tie tolerance.

Execution modes
---------------
``"pool"`` runs tiles on the instance's persistent worker pool
(:mod:`repro.engine.pool`): the NLC arrays are published once per solve
through a :mod:`repro.store` backend (``shm`` by default;
``REPRO_STORE`` picks ``memmap`` / ``ram``), each tile job is
a small tuple carrying the handle, the tile's row window and its halo
bitmap (window/8 bytes, no NLC bytes), workers attach only that slice
and gather just the halo rows, and the executor's single call queue is
the work-stealing mechanism — idle workers pull the next tile, so a
dense tile cannot straggle the run.  The Theorem-2 bound lives in a
shared ``multiprocessing.Value`` owned by the pool.  ``"tiles"`` runs
the same per-tile executor in-process, sequentially in tile order —
the pool's schedule replayed by one worker, which is what makes
tiles/pool merged counters comparable (a one-worker pool produces
bit-identical work counters) and what the broken-pool fallback uses; it
is :func:`~repro.engine.outofcore.solve_streamed`'s loop.  ``"serial"``
runs all tiles in-process on one *unified frontier*: every tile root is
pushed onto a single best-first heap, so the one worker always steals
the globally most promising quadrant next — the degenerate (one-worker)
form of the stealing queue.  Sharing ``MaxMin`` and the Theorem 3
registry from the first pop means a cold tile never tessellates under a
weak local bound while the optimum sits in a hot tile it hasn't reached;
serial overhead collapses to just the cut-line tessellation (~3% on
fig11-uniform, vs ~25% for tile-at-a-time execution).  ``"auto"`` picks
the pool when the machine has more than one core.  A one-tile plan
always runs in-process.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro import store as nlc_store
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.core.quadrant import MaxFirstStats
from repro.core.region import OptimalRegion, found_regions
from repro.core.result import MaxBRkNNResult
from repro.engine.outofcore import (StreamPlan, TileOutput, merge,
                                    plan_streamed, run_tiles)
from repro.index.circleset import CircleSet
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import TRACER, span
from repro.store.base import StoreHandle

#: Deterministic sharding-layer counter (shared with the tile engine,
#: recorded in the parent so every mode counts identically).
_SHARD_TASKS = _obs_metrics.counter("shard_tasks")
#: Transport counters (mode/topology-dependent, excluded from identity
#: checks and the perf gate): tile jobs submitted to the pool, and jobs
#: a different worker pulled than the static round-robin assignment
#: would have received.
_POOL_TASKS = _obs_metrics.counter("pool_tasks")
_TILES_STOLEN = _obs_metrics.counter("tiles_stolen")

_MODES = ("auto", "serial", "tiles", "pool")


class ShardedMaxFirst:
    """MaxFirst with tile-sharded Phase I.

    Parameters
    ----------
    shards:
        Requested parallelism (1 degenerates to the single-process
        solver).  Counts that do not factor into the near-square grid
        round up to the full grid — see
        :func:`~repro.engine.outofcore.tile_grid`.
    mode:
        ``"auto"`` (pool when multi-core), ``"serial"`` (unified
        in-process frontier), ``"tiles"`` (tile-at-a-time in-process,
        the pool's one-worker schedule), or ``"pool"``.
    max_workers:
        Worker-process cap for the pool; defaults to
        ``min(shards, cpu_count)``.
    sync_interval:
        Pops between bound-exchange polls inside each shard's Phase I.
    maxfirst_options:
        Forwarded to every per-shard :class:`MaxFirst` (``top_t`` must
        stay 1: the top-t frontier is not a global bound).

    The worker pool persists across ``solve()`` calls; release it with
    :meth:`close` (the engine pipeline does this in its finalize hook)
    or use the instance as a context manager.
    """

    def __init__(self, shards: int = 2, mode: str = "auto",
                 max_workers: int | None = None,
                 sync_interval: int = 1024,
                 **maxfirst_options: Any) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if maxfirst_options.get("top_t", 1) != 1:
            raise ValueError("sharded execution requires top_t == 1")
        if sync_interval < 1:
            raise ValueError("sync_interval must be positive")
        self.shards = shards
        self.mode = mode
        self.max_workers = max_workers
        self.sync_interval = sync_interval
        #: A live :class:`repro.store.NLCStore` whose rows are exactly
        #: the NLC set being solved; when set (by the engine pipeline),
        #: every mode reads that store instead of publishing its own
        #: copy, and never closes it.
        self.external_store: Any = None
        self.maxfirst_options = dict(maxfirst_options)
        self._solver = MaxFirst(**maxfirst_options)
        self._pool: Any = None
        self._epoch = 0
        #: Test hook: tile indices whose pool job raises (exercises the
        #: shm-cleanup-on-worker-failure path without killing a worker).
        self._fail_tiles: frozenset[int] = frozenset()

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ShardedMaxFirst":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def solve(self, problem: MaxBRkNNProblem) -> MaxBRkNNResult:
        """Full pipeline: NLC construction, sharded Phase I, Phase II."""
        t0 = time.perf_counter()
        nlcs = build_nlcs(problem,
                          keep_zero_score=self._solver.keep_zero_score_nlcs)
        t1 = time.perf_counter()
        if len(nlcs) == 0:
            return MaxBRkNNResult(
                score=0.0, regions=(), nlcs=nlcs,
                space=problem.data_bounds(), stats=MaxFirstStats(),
                timings={"nlc": t1 - t0, "phase1": 0.0, "phase2": 0.0})
        result = self.solve_nlcs(nlcs)
        result.timings["nlc"] = t1 - t0
        return result

    def solve_nlcs(self, nlcs: CircleSet) -> MaxBRkNNResult:
        """Sharded solve over an explicit NLC set."""
        if len(nlcs) == 0:
            raise ValueError("cannot solve over an empty NLC set")
        plan = self.plan(nlcs)
        t0 = time.perf_counter()
        outputs = self.execute(nlcs, plan)
        t1 = time.perf_counter()
        max_min, regions, stats = self.merge(nlcs, outputs)
        t2 = time.perf_counter()
        return MaxBRkNNResult(
            score=max_min, regions=tuple(regions), nlcs=nlcs,
            space=plan.space, stats=stats,
            timings={"phase1": t1 - t0, "phase2": t2 - t1})

    # ------------------------------------------------------------------ #
    # Staged pieces (the engine pipeline times these separately)
    # ------------------------------------------------------------------ #

    def plan(self, nlcs: CircleSet) -> StreamPlan:
        """Partition the space and assign each tile its halo."""
        return plan_streamed(
            self._tile_store(nlcs)[0], self.shards,
            resolution_fraction=self._solver.resolution_fraction)

    def execute(self, nlcs: CircleSet,
                plan: StreamPlan) -> list[TileOutput]:
        """Run Phase I over every planned tile."""
        if plan.n_shards == 0:
            return []
        _SHARD_TASKS.add(plan.n_shards)
        mode = self.mode
        if mode == "auto":
            mode = "pool" if (os.cpu_count() or 1) > 1 else "serial"
        if plan.n_shards == 1:
            mode = "tiles"
        if mode == "pool":
            try:
                return self._execute_processes(nlcs, plan)
            except (OSError, ImportError, BrokenProcessPool,
                    pickle.PicklingError) as exc:
                # Drop the broken executor in either mode so a later
                # solve on this instance starts a fresh pool.
                if self._pool is not None:
                    self._pool.discard()
                if self.mode == "pool":
                    raise RuntimeError(
                        f"pool-mode sharding unavailable: {exc}"
                    ) from exc
                # Restricted environments (no /dev/shm, no working
                # spawn) and workers killed mid-run (OOM reaper): the
                # tiles mode replays the pool's schedule in-process
                # and computes the identical result.
                mode = "tiles"
        if mode == "tiles":
            return run_tiles(self._tile_store(nlcs)[0], plan,
                             self.maxfirst_options, self.sync_interval)
        return [self._execute_serial(nlcs, plan)]

    def merge(self, nlcs: CircleSet, outputs: list[TileOutput]
              ) -> tuple[float, list[OptimalRegion], MaxFirstStats]:
        """Merge tile outputs: global best, deduped regions, summed stats."""
        return merge(nlcs, outputs, self._solver.tie_tol)

    # ------------------------------------------------------------------ #

    def _tile_store(self, nlcs: CircleSet) -> tuple[StoreHandle, bool]:
        """The store the tile engine reads ``nlcs`` through, and whether
        it is :attr:`external_store`: the pipeline's published store
        when it holds these rows, else a zero-copy ``ram`` publish of
        the in-RAM set."""
        owner = self.external_store
        if owner is not None and owner.length == len(nlcs):
            return owner.handle, True
        # A ram handle carries the arrays themselves, so it stays valid
        # after its owner closes.
        with nlc_store.publish(nlcs, "ram") as ram:
            return ram.handle, False

    def _execute_serial(self, nlcs: CircleSet,
                        plan: StreamPlan) -> TileOutput:
        """Unified-frontier serial execution: one search, all tiles.

        Every tile root goes onto a single best-first heap
        (``run_phase1(roots=...)``), so the in-process worker always
        takes the globally most promising quadrant — the one-worker
        degenerate of the pool's stealing queue.  Bound and Theorem 3
        registry are shared from the first pop, which removes the
        tile-at-a-time pathology where a cold tile tessellates under a
        weak local bound because the tile holding the optimum has not
        run yet.  Exactness is untouched: each root's candidates are
        its halo rows from the plan (:meth:`StreamPlan.halo_rows`), and
        bounds/covers only ever prune.
        """
        with _obs_metrics.REGISTRY.isolated() as box:
            with span("shard/unified", tiles=plan.n_shards,
                      nlcs=len(nlcs)):
                solver = MaxFirst(**self.maxfirst_options)
                roots = [(tile, plan.halo_rows(i))
                         for i, tile in enumerate(plan.tiles)]
                accepted, max_min, stats = solver.run_phase1(
                    nlcs, plan.space, resolution=plan.resolution,
                    initial_bound=plan.seed_bound, roots=roots)
        return TileOutput(found=found_regions(accepted), max_min=max_min,
                          stats=stats.as_dict(),
                          obs_counters=dict(box["counters"]),
                          obs_gauges=dict(box["gauges"]))

    def _ensure_pool(self) -> Any:
        """The instance's persistent pool, created on first use."""
        if self._pool is None:
            from repro.engine.pool import PersistentPool

            workers = self.max_workers or min(self.shards,
                                              os.cpu_count() or 1)
            self._pool = PersistentPool(max_workers=workers)
        return self._pool

    def _execute_processes(self, nlcs: CircleSet,
                           plan: StreamPlan) -> list[TileOutput]:
        """Pool execution: store publish + work-stealing queue.

        The NLC arrays cross the process boundary exactly once per
        solve, published through the :mod:`repro.store` backend
        ``REPRO_STORE`` names, else ``shm`` (or reusing
        :attr:`external_store`'s handle when the pipeline already
        published); each tile job is a small tuple carrying the
        handle, the tile's row window and its halo bitmap (window/8
        bytes), so a worker attaches only that slice and gathers just
        the halo rows out of it.  Jobs are submitted
        individually — the executor's call queue is the stealing
        mechanism, so whichever worker goes idle takes the next tile.
        The segment/file is unlinked in the ``finally`` whatever
        happens to the workers; Linux keeps the pages alive for
        already-mapped workers, so a straggler finishing after an
        unlink is still safe.
        """
        pool = self._ensure_pool()
        trace_enabled = TRACER.enabled
        handle, external = self._tile_store(nlcs)
        owner: nlc_store.NLCStore | None = None
        if not external:
            backend_name = nlc_store.resolve_store_name(default="shm")
            with span("shard/store_publish", nlcs=len(nlcs),
                      store=backend_name):
                owner = nlc_store.publish(nlcs, backend_name)
            handle = owner.handle
        self._epoch += 1
        pool.reset_bound(plan.seed_bound)
        _POOL_TASKS.add(plan.n_shards)
        launch_ts = TRACER.now() if trace_enabled else 0.0
        futures = []
        try:
            for i, (tile, window, halo) in enumerate(zip(
                    plan.tiles, plan.windows, plan.halos)):
                job = (self._epoch, handle,
                       (tile.xmin, tile.ymin, tile.xmax, tile.ymax),
                       window, halo, i, plan.resolution,
                       self.maxfirst_options, self.sync_interval,
                       plan.scores_nonneg, trace_enabled,
                       i in self._fail_tiles)
                futures.append(pool.submit(job))
            with span("shard/tile_wait", tiles=plan.n_shards):
                results = [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()
            if owner is not None:
                owner.close()
        outputs = []
        slots: dict[int, int] = {}
        stolen = 0
        for tile_index, worker_pid, output, spans in results:
            # Steal accounting: workers take slots in first-result
            # order; a tile whose worker differs from the round-robin
            # assignment was pulled off the queue by an idle sibling.
            slot = slots.setdefault(worker_pid, len(slots))
            if slot != tile_index % pool.max_workers:
                stolen += 1
            outputs.append(output)
            if trace_enabled:
                # Splice each tile's spans in as its own pid track,
                # offset to this process's launch time so the tracks
                # line up with the surrounding pipeline/search span.
                TRACER.ingest(spans, pid=tile_index + 1,
                              ts_offset=launch_ts)
        _TILES_STOLEN.add(stolen)
        return outputs
