"""Process-wide metrics registry: named work counters and gauges.

Counters here are *deterministic work counters* — monotonic counts of
algorithmic events (kernel batches, tree-node visits, refinement pair
tests) that are bit-stable across runs and machines for a fixed
instance.  That stability is what lets the CI perf gate
(:mod:`repro.obs.gate`) diff them against a checked-in baseline with a
tight band where wall-clock thresholds would flap.  Gauges are
level/high-water measurements (peak RSS, numpy scratch bytes) — useful
in reports, deliberately *excluded* from the gate because they are not
deterministic.

Increment sites hold a :class:`Counter` handle (module-level, fetched
once) and call ``handle.add(n)``; the handle mutates the registry's
dict in place, so :meth:`MetricsRegistry.isolated` can swap that dict
out and back to capture a delta without invalidating any handle — the
mechanism behind per-tile counter capture in ``engine/outofcore.py``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "COUNTER_KEYS",
    "GAUGE_KEYS",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "peak_rss_bytes",
    "zeroed_counters",
]

#: Transport counters: byte/job/steal/attach counts of the zero-copy
#: sharding transport (store publish, pool queue, slice attaches).
#: Unlike the deterministic work counters they depend on execution mode
#: and worker topology —
#: a serial run maps zero shared bytes, a 2-worker pool steals tiles a
#: 1-worker pool cannot — so identity tests and the perf gate must
#: exclude them.  They stay in ``COUNTER_KEYS`` so every report carries
#: the full schema.
TRANSPORT_COUNTER_KEYS: tuple[str, ...] = (
    "shm_bytes_mapped",
    "pool_tasks",
    "tiles_stolen",
    "store_slice_views",
)

#: Every registry counter key, in report order.  The counter-schema test
#: and :func:`repro.analysis.project_rules.check_obs_drift` hold this
#: tuple, the counter glossary in docs/observability.md, and the gate
#: baseline in sync.
COUNTER_KEYS: tuple[str, ...] = (
    "kernel_batches",
    "kernel_rects",
    "rtree_node_visits",
    "refine_pair_tests",
    "region_grows",
    "phase2_clips",
    "nlc_build_queries",
    "nlc_build_chunks",
    "shard_tasks",
    "halo_assignments",
    "serve_requests",
    "serve_batches",
    "serve_cache_hits",
    "serve_cache_misses",
    "serve_cache_evictions",
    "heatmap_tiles_filled",
) + TRANSPORT_COUNTER_KEYS

#: Every registry gauge key.  Gauges are observational (non-deterministic
#: allowed) and never enter the perf gate.
GAUGE_KEYS: tuple[str, ...] = (
    "peak_rss_bytes",
    "numpy_scratch_bytes_peak",
    "nlc_store_bytes_mapped",
    "nlc_build_chunk_rss_peak",
    "store_sanitize_violations",
    "serve_cache_bytes",
)


class Counter:
    """Cheap handle onto one named counter in a registry.

    The handle reads the live dict through the registry on every call,
    so ``isolated()`` swaps are visible immediately; the cost is one
    attribute load + dict get/set per ``add``.
    """

    __slots__ = ("_registry", "name")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self.name = name

    def add(self, n: int = 1) -> None:
        values = self._registry._counters
        values[self.name] = values.get(self.name, 0) + n


class Gauge:
    """Handle onto one named gauge (a level, not an accumulator)."""

    __slots__ = ("_registry", "name")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self.name = name

    def set(self, value: float) -> None:
        self._registry._gauges[self.name] = float(value)

    def observe_max(self, value: float) -> None:
        """Record ``value`` if it exceeds the current high-water mark."""
        gauges = self._registry._gauges
        current = gauges.get(self.name)
        if current is None or value > current:
            gauges[self.name] = float(value)


class MetricsRegistry:
    """Mutable store of counters and gauges with delta/merge support."""

    __slots__ = ("_counters", "_gauges")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}

    # -- handles ------------------------------------------------------- #

    def counter(self, name: str) -> Counter:
        return Counter(self, name)

    def gauge(self, name: str) -> Gauge:
        return Gauge(self, name)

    # -- reading ------------------------------------------------------- #

    def snapshot(self) -> dict[str, int]:
        """Copy of the current counter values (delta baseline)."""
        return dict(self._counters)

    def gauges_snapshot(self) -> dict[str, float]:
        return dict(self._gauges)

    def delta_since(self, before: Mapping[str, int]) -> dict[str, int]:
        """Counter increments accumulated since ``before`` (a prior
        :meth:`snapshot`), dropping zero entries."""
        out: dict[str, int] = {}
        for name, value in self._counters.items():
            diff = value - before.get(name, 0)
            if diff != 0:
                out[name] = diff
        return out

    # -- writing ------------------------------------------------------- #

    def reset(self) -> None:
        self._counters = {}
        self._gauges = {}

    def merge_counts(self, counts: Mapping[str, int]) -> None:
        """Add another registry's counter deltas into this one."""
        values = self._counters
        for name, n in counts.items():
            values[name] = values.get(name, 0) + n

    def merge_gauges_max(self, gauges: Mapping[str, float]) -> None:
        """Fold in gauges from another process, keeping the maximum —
        the right combine for high-water marks across shards."""
        own = self._gauges
        for name, value in gauges.items():
            current = own.get(name)
            if current is None or value > current:
                own[name] = float(value)

    @contextmanager
    def isolated(self) -> Iterator[dict[str, Any]]:
        """Run a block against fresh counter/gauge stores and capture
        what it recorded.

        Yields a box dict; on exit the box holds ``{"counters": delta,
        "gauges": delta}`` for the block, and the pre-existing values are
        restored untouched.  Handles created before the block keep
        working inside and after it because they resolve the store
        through the registry on every call.  The restore runs on the
        exception path too, so a raising shard cannot leak its counts
        into the parent's totals.
        """
        saved_counters = self._counters
        saved_gauges = self._gauges
        self._counters = {}
        self._gauges = {}
        box: dict[str, Any] = {}
        try:
            yield box
        finally:
            box["counters"] = self._counters
            box["gauges"] = self._gauges
            self._counters = saved_counters
            self._gauges = saved_gauges


#: The process-wide registry every instrumented layer records into.
REGISTRY = MetricsRegistry()

counter = REGISTRY.counter
gauge = REGISTRY.gauge


def zeroed_counters() -> dict[str, int]:
    """A fresh ``{key: 0}`` dict over :data:`COUNTER_KEYS` — the base
    layer every ``RunReport.counters`` starts from, so degenerate
    instances still report the full stable key set."""
    return dict.fromkeys(COUNTER_KEYS, 0)


def peak_rss_bytes() -> float | None:
    """Process peak resident-set size in bytes, or None where the
    ``resource`` module is unavailable (non-POSIX platforms)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return float(peak * (1 if sys.platform == "darwin" else 1024))
