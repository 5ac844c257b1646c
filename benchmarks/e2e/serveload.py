"""The serve workloads: ``serve-hot`` and ``serve-miss``.

A ``python -m repro serve`` daemon runs in its own process; this
process is the load: two threads, one keep-alive connection each,
closed loop (each caller waits for its reply before sending again).
After the daemon shuts down, the served answers are replayed through an
in-process ``QueryService(cache_bytes=0)`` and must match byte for
byte.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Callable

import numpy as np

from batch import CheckFailed
from harness import (Ledger, Tracer, canonical, median, proc_cpu_s,
                     vm_hwm_mb)
from reference import CpuCost, Reference
from repro.datasets.synthetic import uniform_points
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import problem_from_doc
from repro.serve.protocol import (AnytimeSolveRequest, BrknnRequest,
                                  ErrorResponse, HeatmapRequest,
                                  ImpactRequest, SiteInfluenceRequest,
                                  SolveRequest, decode_request,
                                  decode_response, encode_request,
                                  encode_response, request_key)
from repro.serve.service import QueryService

CLIENTS = 2
ZIPF_S = 1.1
#: Served answers replayed in-process after a ``serve-miss`` run.
MISS_REPLAY = 200
HEALTH_PROBES = 100
INSTANCE_SEED = 11
#: Load slice between two reference timings, seconds.
SLICE_S = 1.0
#: Longest a thread waits at the slice gate before giving up.
GATE_TIMEOUT_S = 60.0
#: One block of the serve-miss mix: 90% impact, 8% anytime, 2% heat map.
MISS_MIX = ("impact",) * 45 + ("solve_anytime",) * 4 + ("heatmap",)


class _TracedClient:
    """``ServeClient``'s wire exchange spelled out, so encode, HTTP
    round trip and decode are timed as separate spans."""

    def __init__(self, host: str, port: int, tracer: Tracer) -> None:
        self.tracer = tracer
        self.conn = HTTPConnection(host, port, timeout=60.0)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def query(self, request: Any) -> Any:
        tracer = self.tracer
        with tracer.span("serve.client.encode"):
            body = json.dumps({"requests": [encode_request(request)]})
        with tracer.span("serve.client.http"):
            self.conn.request("POST", "/query", body.encode("utf-8"),
                              {"Content-Type": "application/json"})
            reply = self.conn.getresponse()
            raw = reply.read()
        with tracer.span("serve.client.decode"):
            if reply.status != 200:
                raise ServeError(f"HTTP {reply.status}")
            return decode_response(json.loads(raw)["responses"][0])

    def health_ms(self) -> float:
        t0 = time.perf_counter()
        self.conn.request("GET", "/health")
        self.conn.getresponse().read()
        return (time.perf_counter() - t0) * 1e3

    def close(self) -> None:
        self.conn.close()


class ServeWorkload:
    """Shared daemon lifecycle, closed-loop load and replay check; the
    two workloads differ only in the request stream."""

    FULL = {"customers": 20_000, "sites": 200, "k": 2}
    SMOKE = {"customers": 2_000, "sites": 50, "k": 2}
    cache_bytes: int | None = None

    def __init__(self, seed: int, smoke: bool, out: Path,
                 traced: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.size = self.SMOKE if smoke else self.FULL
        self.trace_path = out / f"daemon-trace-{self.name}.json" if traced else None
        # The published instance is a fixture and only the traffic
        # follows the seed: how hard the prewarm solve is varies ~10x
        # between random instances, which would swamp the serve path.
        rng = np.random.default_rng([INSTANCE_SEED, 0])
        customers = uniform_points(self.size["customers"], rng)
        sites = uniform_points(self.size["sites"], rng)
        self.doc = {"customers": customers.tolist(),
                    "sites": sites.tolist(), "k": self.size["k"],
                    "probability": "linear"}
        self.proc: subprocess.Popen | None = None
        self.client: ServeClient | None = None
        self.instance = ""
        self.warm: list[Any] = []
        self.ledger = Ledger()
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- daemon lifecycle --------------------------------------------- #

    def setup(self) -> dict[str, Any]:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--store", "memmap"]
        if self.cache_bytes is not None:
            cmd += ["--cache-bytes", str(self.cache_bytes)]
        if self.trace_path is not None:
            self.trace_path.unlink(missing_ok=True)
            cmd += ["--trace", str(self.trace_path)]
        # repro: unguarded-load(the daemon inherits the environment,
        # REPRO_NO_CKERNEL included)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, _, port = line.removeprefix("serving on ").rpartition(":")
        self.port = int(port)
        self.client = ServeClient(self.host, self.port)
        self.instance = self.client.publish(self.doc)
        self.warm = self.warm_requests()
        for request in self.warm:
            (response,) = self.client.query([request])
            if isinstance(response, ErrorResponse):
                raise RuntimeError(f"warm-up {request} failed: {response}")
        return {}

    def finish(self) -> dict[str, Any]:
        """Read the daemon's peak RSS, then shut it down and wait."""
        rss = vm_hwm_mb(self.proc.pid)
        self.client.shutdown()
        self.client = None
        self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited {self.proc.returncode}")
        self.proc = None
        return {"peak_rss_mb": rss}

    def close(self) -> None:
        """Error-path teardown: ask the daemon to stop (so it removes its
        store file), kill it only if it does not."""
        if self.proc is None:
            return
        try:
            self.client.shutdown()
            self.proc.communicate(timeout=30)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.communicate()
        self.proc = None

    # -- load ------------------------------------------------------- #

    def measure(self, seconds: float, tracer: Tracer) -> dict[str, Any]:
        floor_ms = 0.0
        if tracer.enabled:
            probe = _TracedClient(self.host, self.port, tracer)
            floor_ms = median(probe.health_ms() for _ in range(HEALTH_PROBES))
            probe.close()
        before = self.client.metrics()["counters"]
        # Only the load threads' connections stay open while they run;
        # the client reconnects for the /metrics read after them.
        self.client.close()
        latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
        # The run is cut into slices of about a second.  Between two
        # slices both clients wait at the gate while this thread times
        # the reference computation on an otherwise idle program.
        start = time.perf_counter()
        slices = max(1, round(seconds / SLICE_S))
        ends = [start + seconds * (j + 1) / slices for j in range(slices)]
        gate = threading.Barrier(CLIENTS + 1, timeout=GATE_TIMEOUT_S)
        threads = [threading.Thread(
            target=self._client_loop,
            args=(c, ends, gate, tracer, latencies[c]))
            for c in range(CLIENTS)]
        for t in threads:
            t.start()
        # The daemon and the clients run on any of the processors.
        cost = CpuCost(Reference(os.sched_getaffinity(0)))
        busy = 0.0
        try:
            for _ in ends:
                t0 = time.perf_counter()
                c0 = time.process_time() + proc_cpu_s(self.proc.pid)
                gate.wait()  # the clients start the slice
                gate.wait()  # ... and have all finished it
                c1 = time.process_time() + proc_cpu_s(self.proc.pid)
                busy += time.perf_counter() - t0
                cost.add(c1 - c0)
        except threading.BrokenBarrierError:
            raise RuntimeError(f"{self.name}: a load thread stopped") from None
        finally:
            gate.abort()
            for t in threads:
                t.join()
        wall = time.perf_counter() - start
        after = self.client.metrics()["counters"]
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        samples = [x for per in latencies for x in per]
        self.counters = delta
        return {"latencies_s": samples, "ops": len(samples), "wall_s": wall,
                "busy_s": busy, "cpu_units": cost.units,
                "reference_s": cost.refs, "floor_ms": floor_ms,
                "counters": delta,
                "batches": (before.get("serve_batches", 0),
                            after.get("serve_batches", 0))}

    def _client_loop(self, cid: int, ends: list[float],
                     gate: threading.Barrier, tracer: Tracer,
                     latencies: list[float]) -> None:
        """One closed-loop client.  Each slice starts and ends at the
        gate; a client that stops early breaks the gate, so the
        measuring thread does not wait for it."""
        try:
            self._send_slices(cid, ends, gate, tracer, latencies)
        except threading.BrokenBarrierError:
            pass  # the measuring thread has stopped and says why
        except BaseException:
            gate.abort()
            raise

    def _send_slices(self, cid: int, ends: list[float],
                     gate: threading.Barrier, tracer: Tracer,
                     latencies: list[float]) -> None:
        # A --trace run uses the spelled-out client in its untraced half
        # too, so the overhead figure compares the same client code.
        if self.trace_path is not None:
            client: Any = _TracedClient(self.host, self.port, tracer)
            send: Callable[[Any], Any] = client.query
        else:
            client = ServeClient(self.host, self.port)
            send = lambda request: client.query([request])[0]  # noqa: E731
        draw = self.request_stream(cid)
        rid = cid
        try:
            for end in ends:
                gate.wait()
                while time.perf_counter() < end:
                    request = draw()
                    rid += CLIENTS
                    t0 = time.perf_counter()
                    try:
                        with tracer.span("serve.request", rid=rid):
                            response = send(request)
                    except ServeError:
                        self.ledger.fail("http")
                        continue
                    except ConnectionRefusedError:
                        self.ledger.fail("refused")
                        client.close()  # the next request reconnects
                        continue
                    except OSError:
                        self.ledger.fail("io")
                        client.close()
                        continue
                    # repro: fallback(one reply that breaks the client
                    # counts as one failed request; its traceback is
                    # printed and the load loop goes on)
                    except Exception:
                        traceback.print_exc()
                        self.ledger.fail("exception")
                        client.close()
                        continue
                    latency = time.perf_counter() - t0
                    if isinstance(response, ErrorResponse):
                        self.ledger.fail("error")
                        continue
                    self.ledger.ok()
                    latencies.append(latency)
                    with self._lock:
                        self.record(request, response)
                gate.wait()
        finally:
            client.close()

    # -- per-layer attribution ------------------------------------------ #

    def layers(self, segment: dict[str, Any], tracer: Tracer
               ) -> dict[str, Any]:
        """Split the mean round trip into floor, codec, execute, wait."""
        spans = tracer.spans
        n = sum(1 for s in spans if s.name == "serve.request")
        total = {name: sum(s.dur for s in spans if s.name == name)
                 for name in ("serve.request", "serve.client.encode",
                              "serve.client.http", "serve.client.decode")}
        lo, hi = segment["batches"]
        execute_s = sum(dur for dur in self._daemon_batch_durations()[lo:hi])
        c = segment["counters"]
        requests, batches = c.get("serve_requests", 0), c.get("serve_batches", 0)
        hits, misses = c.get("serve_cache_hits", 0), c.get("serve_cache_misses", 0)
        floor_ms = segment["floor_ms"]
        codec_ms = (total["serve.client.encode"]
                    + total["serve.client.decode"]) / n * 1e3
        execute_ms = execute_s / n * 1e3
        http_ms = total["serve.client.http"] / n * 1e3
        wait_ms = http_ms - floor_ms - execute_ms
        unattributed_s = (total["serve.request"] - total["serve.client.encode"]
                          - total["serve.client.http"]
                          - total["serve.client.decode"])
        table = {"wall_s": total["serve.request"], "self_s": {
            "serve.daemon.rtt_floor": floor_ms * n / 1e3,
            "serve.client.codec": codec_ms * n / 1e3,
            "serve.service.execute": execute_s,
            "serve.batching.wait": wait_ms * n / 1e3,
            "unattributed": unattributed_s}}
        metrics = {
            "serve.daemon.rtt_floor_ms": floor_ms,
            "serve.client.codec_ms": codec_ms,
            "serve.service.execute_ms": execute_ms,
            "serve.batching.wait_ms": wait_ms,
            "serve.batching.batch_size": requests / batches if batches else 0.0,
            "serve.batching.coalesced": 1.0 - requests / n,
            "serve.cache.hit_ratio": (hits / (hits + misses)
                                      if hits + misses else 0.0),
            "serve.cache.evictions": c.get("serve_cache_evictions", 0) / n,
            "index.kernel_batches": c.get("kernel_batches", 0) / n,
            "core.region.clips": c.get("phase2_clips", 0) / n,
            "trace.attributed_share": 1.0 - unattributed_s / total["serve.request"],
        }
        return {"metrics": metrics, "self_time": table}

    def _daemon_batch_durations(self) -> list[float]:
        """``serve/batch`` span durations (s) from the daemon's Chrome
        trace, in execution order (one dispatcher thread runs them)."""
        events = json.loads(self.trace_path.read_text())
        return [e["dur"] / 1e6 for e in events
                if e.get("ph") == "X" and e["name"] == "serve/batch"]

    # -- correctness ---------------------------------------------------- #

    def check(self) -> list[str]:
        """Workload sanity from the daemon's counters, then byte identity
        of served answers against an uncached in-process service."""
        self.check_cache(self.counters)
        replay = self.replay_set()
        service = QueryService(cache_bytes=0, store="ram")
        try:
            instance = service.publish(problem_from_doc(self.doc))

            def local(request: Any) -> Any:
                # Same request, addressed to the local instance id.
                doc = {**encode_request(request),
                       "instance": instance.instance_id}
                return service.execute([decode_request(doc)])[0]

            for request in self.warm:
                local(request)
            for request, served in replay:
                mine = canonical(encode_response(local(request)))
                if mine != canonical(encode_response(served)):
                    raise CheckFailed(f"{self.name}: served answer to "
                                      f"{request_key(request)} differs "
                                      f"from the in-process service")
        finally:
            service.close()
        return [f"replay: {len(replay)} served answers byte-identical"]


class ServeHot(ServeWorkload):
    """~54 prewarmed keys drawn Zipf(1.1): every reply is a cache hit,
    so the front end (HTTP, codec, batching) is the work.

    The hot set and its popularity ranking are fixtures; the seed draws
    the request sequence.  Reply sizes differ ~100x between keys: with
    the hot set drawn from the seed, the expected reply size spread 11%
    between the quartiles of ten seeds, and the cost per request with
    it.
    """

    name = "serve-hot"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.first: dict[str, Any] = {}
        self.diverged = 0

    def hot_keys(self) -> list[Any]:
        i = self.instance
        rng = np.random.default_rng([INSTANCE_SEED, 1])
        sites = sorted(rng.choice(self.size["sites"], 32, replace=False))
        grid = [0.2, 0.4, 0.6, 0.8]
        return ([SolveRequest(i)]
                + [BrknnRequest(i, int(s)) for s in sites]
                + [ImpactRequest(i, x, y) for x in grid for y in grid]
                + [SiteInfluenceRequest(i), HeatmapRequest(i, 24, 24)]
                + [AnytimeSolveRequest(i, e) for e in (0.05, 0.1, 0.25)])

    def warm_requests(self) -> list[Any]:
        # The exact solve goes first: it installs the certificate every
        # later anytime solve is seeded with.
        return self.hot_keys()

    def request_stream(self, cid: int) -> Callable[[], Any]:
        keys = self.hot_keys()
        order = np.random.default_rng([INSTANCE_SEED, 2]).permutation(
            len(keys))
        weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_S
        probs = weights / weights.sum()
        rng = np.random.default_rng([self.seed, 100 + cid])
        ranked = [keys[j] for j in order]

        def draw() -> Any:
            return ranked[int(rng.choice(len(ranked), p=probs))]

        return draw

    def check_cache(self, counters: dict[str, int]) -> None:
        hits = counters.get("serve_cache_hits", 0)
        misses = counters.get("serve_cache_misses", 0)
        if hits < 0.99 * (hits + misses):
            raise CheckFailed(f"{self.name}: hit ratio {hits}/{hits + misses}"
                              f" below 0.99")

    def record(self, request: Any, response: Any) -> None:
        """Keep each key's first answer; count later answers that differ
        (called under the workload lock)."""
        first = self.first.setdefault(request_key(request), response)
        if first != response:
            self.diverged += 1

    def replay_set(self) -> list[tuple[Any, Any]]:
        """Every hot key that was served, each with its one answer."""
        if self.diverged:
            raise CheckFailed(f"{self.name}: {self.diverged} replies differ "
                              f"from their key's first reply")
        return [(r, self.first[request_key(r)]) for r in self.hot_keys()
                if request_key(r) in self.first]


class ServeMiss(ServeWorkload):
    """Fresh keys only, against a cache far smaller than the answers:
    every reply is computed and written to the cache, evicting."""

    name = "serve-miss"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.cache_bytes = 8 * 1024 if self.smoke else 64 * 1024
        self.seen: set[str] = set()
        self.served: list[tuple[Any, Any]] = []

    def _fresh(self, make: Callable[[], Any]) -> Any:
        """A request whose key no earlier request of the run had."""
        for _ in range(1000):
            request = make()
            key = request_key(request)
            with self._lock:
                if key not in self.seen:
                    self.seen.add(key)
                    return request
        raise RuntimeError(f"{self.name}: ran out of fresh keys")

    def warm_requests(self) -> list[Any]:
        rng = np.random.default_rng([self.seed, 3])
        i = self.instance
        return [SolveRequest(i)] + [
            self._fresh(lambda: ImpactRequest(i, *rng.uniform(0, 1, 2)))
            for _ in range(24)]

    def request_stream(self, cid: int) -> Callable[[], Any]:
        rng = np.random.default_rng([self.seed, 200 + cid])
        i = self.instance
        makers = {
            "impact": lambda: ImpactRequest(i, *rng.uniform(0, 1, 2)),
            "solve_anytime": lambda: AnytimeSolveRequest(
                i, float(rng.uniform(0.05, 0.5))),
            "heatmap": lambda: HeatmapRequest(i, int(rng.integers(16, 33)),
                                              int(rng.integers(16, 33))),
        }
        block: list[str] = []

        def draw() -> Any:
            # Whole shuffled blocks keep the mix exact in every run, so
            # the share of slow kinds does not vary from seed to seed.
            if not block:
                block.extend(MISS_MIX[j]
                             for j in rng.permutation(len(MISS_MIX)))
            return self._fresh(makers[block.pop()])

        return draw

    def record(self, request: Any, response: Any) -> None:
        self.served.append((request, response))

    def check_cache(self, counters: dict[str, int]) -> None:
        hits = counters.get("serve_cache_hits", 0)
        misses = counters.get("serve_cache_misses", 0)
        if hits > 0.05 * (hits + misses):
            raise CheckFailed(f"{self.name}: hit ratio {hits}/{hits + misses}"
                              f" above 0.05")
        if counters.get("serve_cache_evictions", 0) <= 0:
            raise CheckFailed(f"{self.name}: the cache never evicted")

    def replay_set(self) -> list[tuple[Any, Any]]:
        rng = np.random.default_rng([self.seed, 4])
        picks = rng.choice(len(self.served),
                           size=min(MISS_REPLAY, len(self.served)),
                           replace=False)
        return [self.served[j] for j in sorted(picks)]
