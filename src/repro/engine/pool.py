"""Persistent worker pool for sharded Phase I.

One :class:`PersistentPool` lives per :class:`~repro.engine.sharded.ShardedMaxFirst`
instance and is reused across tiles, pipeline stages, and repeated
``solve()`` calls — process startup (interpreter boot plus the numpy
and kernel imports) is paid once, not per solve.  The start method is
``forkserver`` where available (workers inherit a warmed template
process, immune to the parent's thread state) with a ``spawn``
fallback; ``fork`` is deliberately not used — a forked worker would
snapshot the parent's metrics registry and tracer mid-solve.

Workers never receive NLC payloads: tiles arrive as a small job tuple
carrying a ``memmap`` store handle (:mod:`repro.store`; a path and a
shape), the tile's row window ``[lo, hi)`` and its halo bitmap from the
plan ((hi - lo)/8 bytes), and each worker runs the tile engine's
per-tile executor (:func:`repro.engine.outofcore.run_tile`), which maps
read-only views over *just that slice* and gathers the halo rows out of
it — a worker touches O(hi - lo) bytes, not the whole store.  Tile
jobs are submitted individually to
the executor, whose single internal call queue is the work-stealing
mechanism: any idle worker pulls the next tile, so a dense tile cannot
straggle the run behind a static assignment.

Worker-local seed covers
------------------------
Each worker accumulates its tiles' found regions during one epoch and
seeds them into its later tiles (Theorem 3 prunes a quadrant whose
``Q.I`` is a subset of a known cover).  With one worker this reproduces
the in-process ``tiles`` schedule exactly — tile ``i`` is seeded with
every cover tiles ``0..i-1`` accepted — which is what keeps tiles and
pool merged counters bit-identical at ``max_workers=1``.  With more
workers each worker seeds only its own history; results are still exact
(seeds only ever *prune* work), merely the work counters shift.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.trace import TRACER

__all__ = ["PersistentPool", "WORKER_ENTRY_POINTS", "solve_tile"]

#: Functions that run inside pool worker processes.  The analysis
#: layer's call graph roots its worker-reachability marking here (in
#: addition to detecting direct ``submit(...)`` first arguments), so
#: keep this tuple in sync when adding a worker entry.
WORKER_ENTRY_POINTS: tuple[str, ...] = ("_init_pool_worker", "solve_tile")

# ---------------------------------------------------------------------- #
# Worker-process globals (set by the pool initializer / per-epoch)
# ---------------------------------------------------------------------- #

#: Shared Theorem-2 bound cell, installed once per worker by the pool
#: initializer.
_SHARED_BOUND: Any = None

#: This worker's seed-cover history for the current epoch:
#: ``(epoch, store_key, seeds)`` — found regions in store rows; the
#: per-tile executor translates them into each tile window.
_EPOCH_STATE: list = [(-1, "", [])]


def _init_pool_worker(shared: Any) -> None:
    """Pool initializer: install the bound cell and warm the kernel.

    The warm-up import compiles/loads the batched classification kernel
    (or its numpy fallback under ``REPRO_NO_CKERNEL``) before the first
    tile arrives, so job latency never includes a compiler run.
    """
    global _SHARED_BOUND
    # repro: worker-state(the initializer is the one sanctioned writer:
    # it installs the inherited bound cell exactly once per worker,
    # before any task can run)
    _SHARED_BOUND = shared
    from repro.index._ckernel import load_quad_kernel

    load_quad_kernel()


def _shared_sync(local: float) -> float:
    """Publish ``local`` into the shared bound; return the global best."""
    shared = _SHARED_BOUND
    if shared is None:
        return local
    with shared.get_lock():
        if local > shared.value:
            shared.value = local
        return float(shared.value)


def _epoch_seeds(epoch: int, store_key: str) -> list:
    """This worker's seed list for ``epoch``, rotating stale state.

    An epoch turn also drops the previous solve's cached store
    attachments — the parent unlinks its store file right after the
    solve, so holding a mapping would only pin dead pages.
    """
    from repro import store as nlc_store

    prev_epoch, _prev_key, seeds = _EPOCH_STATE[0]
    if prev_epoch != epoch:
        nlc_store.detach(keep=(store_key,))
        seeds = []
        # repro: worker-state(per-worker seed-cover history is the
        # documented design — see "Worker-local seed covers" above;
        # seeds only ever prune, so results stay exact regardless of
        # which worker accumulated what)
        _EPOCH_STATE[0] = (epoch, store_key, seeds)
    return seeds


def solve_tile(job: tuple) -> tuple:
    """Worker entry: one tile through the tile engine's executor.

    ``job`` ships a store handle plus the tile, its row window
    ``[lo, hi)``, its halo bitmap and the plan's score-sign flag;
    :func:`repro.engine.outofcore.run_tile` attaches just that slice,
    searches the halo rows gathered out of it, exchanges bounds through
    the shared cell, and seeds Theorem 3 with this worker's epoch
    history.  Returns ``(tile_index, worker_pid, output, spans)``; the
    output's found regions carry store rows, so the parent's merge is
    mode-independent.
    """
    (epoch, handle, tile_tuple, window, halo, tile_index, resolution,
     options, sync_interval, scores_nonneg, trace_enabled, fail) = job
    from repro.engine.outofcore import run_tile
    from repro.geometry.rect import Rect
    from repro.store import sanitize

    # Persistent workers carry the previous task's tracer records —
    # reset per task so each shipped span set covers exactly this tile.
    TRACER.reset(enabled=bool(trace_enabled))
    with sanitize.task("solve_tile"):
        seeds = _epoch_seeds(epoch, handle[1])
        if fail:
            raise RuntimeError(
                f"injected failure in tile {tile_index} (test hook)")
        output = run_tile(handle, tile_index, Rect(*tile_tuple), window,
                          halo, resolution, options, _shared_sync,
                          sync_interval, seeds,
                          scores_nonneg=scores_nonneg)
    spans = ([record.as_dict() for record in TRACER.drain()]
             if trace_enabled else [])
    return (tile_index, os.getpid(), output, spans)


class PersistentPool:
    """Lazily-started, reusable process pool with a shared bound cell.

    The executor is created on first :meth:`submit` and survives until
    :meth:`close` (or :meth:`discard` after a worker death).  The
    Theorem-2 bound cell is allocated once with the multiprocessing
    context so it is inheritable under both start methods.
    """

    def __init__(self, max_workers: int) -> None:
        import multiprocessing as mp

        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        methods = mp.get_all_start_methods()
        self.max_workers = max_workers
        self.start_method = ("forkserver" if "forkserver" in methods
                             else "spawn")
        self._ctx = mp.get_context(self.start_method)
        self._bound = self._ctx.Value("d", 0.0)
        self._executor: Any = None

    # -- lifecycle ----------------------------------------------------- #

    @property
    def running(self) -> bool:
        return self._executor is not None

    def executor(self) -> Any:
        """The live executor, starting it on first use."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self._ctx,
                initializer=_init_pool_worker, initargs=(self._bound,))
        return self._executor

    def discard(self) -> None:
        """Drop a broken executor so the next use starts a fresh one."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent); reusable after via lazy start."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # -- per-solve state ------------------------------------------------ #

    def reset_bound(self, value: float) -> None:
        """Seed the shared Theorem-2 cell for a new solve."""
        with self._bound.get_lock():
            self._bound.value = float(value)

    def submit(self, job: tuple) -> Any:
        """Queue one tile job; any idle worker will pull it."""
        return self.executor().submit(solve_tile, job)
