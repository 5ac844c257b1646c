"""Deterministic per-instance result cache for the serve path.

The cache sits in front of :class:`repro.serve.service.QueryService`:
before a request reaches the solver, the service looks it up under its
canonical key (:func:`repro.serve.protocol.request_key`) and the
publishing instance's *epoch*.  Because every solver in this repo is
bit-deterministic, a cached response is not an approximation of a fresh
solve — it **is** the fresh solve, byte for byte, and
``tests/serve/test_cache.py`` plus ``benchmarks/bench_serve.py`` assert
exactly that before any timing happens.

Design points:

* **Keys.** ``(instance_id, request_key)``.  The request key is the
  codec-canonicalised JSON of the request (shortest-repr floats), so
  two requests share an entry exactly when they are field-for-field
  bit-identical.
* **Epochs.** Each entry is stamped with the instance's epoch at store
  time.  Dynamics (ROADMAP item 3) invalidate by bumping the epoch on
  the served instance — a lookup whose stamped epoch no longer matches
  is treated as a miss and the stale entry dropped.  ``invalidate()``
  exists for eager eviction (e.g. instance close).
* **Budget.** Plain LRU over a byte budget.  An entry is charged the
  UTF-8 length of its encoded-response JSON (the wire cost of a hit),
  plus a small fixed overhead per entry.  ``max_bytes <= 0`` disables
  the cache entirely — the "cold arm" configuration the benchmark uses.
* **Observability.** ``serve_cache_hits`` / ``serve_cache_misses`` /
  ``serve_cache_evictions`` counters and the ``serve_cache_bytes``
  gauge (see docs/observability.md).

Thread safety: one lock around every operation.  The critical sections
are dict moves, far cheaper than any solve; every thread that calls
the service shares one instance.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict

from ..obs import metrics as _obs_metrics
from .protocol import Response, encode_response

__all__ = ["DEFAULT_CACHE_BYTES", "ENTRY_OVERHEAD_BYTES", "ResultCache"]

#: Default byte budget for a :class:`ResultCache` (64 MiB).  At the
#: benchmark's typical ~100-byte responses this is room for hundreds of
#: thousands of distinct hot reads per daemon.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Flat per-entry surcharge covering the key strings and OrderedDict
#: node, so a flood of tiny responses cannot blow past the budget on
#: bookkeeping alone.
ENTRY_OVERHEAD_BYTES = 256


class ResultCache:
    """Epoch-stamped LRU over encoded-response byte cost.

    ``get``/``put`` take the owning instance's *current* epoch; entries
    stamped under an older epoch are invisible (and are dropped on
    touch).  Responses are frozen dataclasses, so a hit hands back the
    stored object itself — bit-identity with the original solve is
    structural, not re-derived.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # (instance_id, request_key) -> (epoch, response, charged_bytes)
        self._entries: "OrderedDict[tuple[str, str], tuple[int, Response, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = _obs_metrics.counter("serve_cache_hits")
        self._misses = _obs_metrics.counter("serve_cache_misses")
        self._evictions = _obs_metrics.counter("serve_cache_evictions")
        self._bytes_gauge = _obs_metrics.gauge("serve_cache_bytes")

    @property
    def enabled(self) -> bool:
        """Whether this cache can ever store anything."""
        return self.max_bytes > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Charged bytes currently resident (entries + overhead)."""
        with self._lock:
            return self._bytes

    def get(self, instance_id: str, key: str, epoch: int) -> Response | None:
        """Return the cached response, or ``None`` on miss/stale."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get((instance_id, key))
            if entry is None:
                self._misses.add(1)
                return None
            stored_epoch, response, nbytes = entry
            if stored_epoch != epoch:
                del self._entries[(instance_id, key)]
                self._bytes -= nbytes
                self._set_gauge()
                self._misses.add(1)
                return None
            self._entries.move_to_end((instance_id, key))
            self._hits.add(1)
            return response

    def put(self, instance_id: str, key: str, epoch: int,
            response: Response) -> None:
        """Store ``response``; evicts LRU entries past the byte budget."""
        if not self.enabled:
            return
        encoded = json.dumps(encode_response(response),
                             separators=(",", ":"))
        nbytes = len(encoded.encode("utf-8")) + ENTRY_OVERHEAD_BYTES
        if nbytes > self.max_bytes:
            return  # would evict the whole cache for one oversized entry
        with self._lock:
            old = self._entries.pop((instance_id, key), None)
            if old is not None:
                self._bytes -= old[2]
            self._entries[(instance_id, key)] = (epoch, response, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, (_, _, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self._evictions.add(1)
            self._set_gauge()

    def invalidate(self, instance_id: str) -> int:
        """Eagerly drop every entry of ``instance_id``; returns count."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == instance_id]
            for k in doomed:
                self._bytes -= self._entries.pop(k)[2]
            if doomed:
                self._set_gauge()
            return len(doomed)

    def clear(self) -> None:
        """Drop everything (test helper)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._set_gauge()

    def _set_gauge(self) -> None:
        # Called with the lock held.
        self._bytes_gauge.set(float(self._bytes))
