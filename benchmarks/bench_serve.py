"""Serve-layer benchmark: queries/sec against a published instance.

Publishes the scripted workload instance (:mod:`repro.serve.workload`)
once, then times batched request rounds against it through four arms:

* ``inprocess_cold`` — :class:`~repro.serve.service.QueryService` with
  the result cache disabled (``cache_bytes=0``): every round pays the
  full geometric computation.  The ceiling the serve path is measured
  against.
* ``inprocess_warm`` — the same service with the default cache,
  prewarmed by one untimed round: every timed round answers from the
  result cache.  This is the repeat-read number the cache exists for.
* ``socket_cold``    — a real ``repro serve --cache-bytes 0`` daemon
  subprocess on an ephemeral port, driven through the persistent
  :class:`~repro.serve.client.ServeClient` connection: JSON codec +
  HTTP/1.1 keep-alive + the daemon's batch thread, recomputing every
  round.
* ``socket_warm``    — the same daemon shape with the default cache,
  prewarmed: what a deployment sees on repeated reads.

Each round replays the same mixed batch (a full BRkNN sweep over all
sites plus a what-if grid); queries/sec is requests divided by the
**best** round time.  Before any timing, cold responses are asserted
**bit-identical** to direct in-process :mod:`repro.core.queries` calls,
and warm (cached) responses are asserted byte-identical to the cold
ones — a throughput number obtained by answering differently is a bug,
not a result.  The report refuses to write unless the warm in-process
arm is at least 5x the cold one.

Run:

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --tiny   # CI smoke

Writes ``BENCH_serve.json`` (see ``--out``); the headline is
``headline.warm_inprocess_qps``.  Timings move with the machine; the
identity assertions and the >=5x cache floor must not move at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core.queries import (brknn_of_site, impact_of_new_site,
                                knn_sites)
from repro.serve.client import ServeClient
from repro.serve.protocol import (BrknnRequest, BrknnResponse,
                                  ImpactRequest, ImpactResponse)
from repro.serve.service import QueryService
from repro.serve.smoke import _boot_daemon, _canonical
from repro.serve.workload import publish_doc, tiny_problem

MIN_CACHE_SPEEDUP = 5.0


def _bench_batch(instance_id: str, n_sites: int) -> list:
    """The timed batch: BRkNN of every site + a 4x4 what-if grid."""
    batch: list = [BrknnRequest(instance_id, j) for j in range(n_sites)]
    batch += [ImpactRequest(instance_id, 12.5 * i, 12.5 * j)
              for i in range(1, 5) for j in range(1, 5)]
    return batch


def _assert_identity(batch, responses, problem, ranks) -> None:
    for request, response in zip(batch, responses):
        if isinstance(request, BrknnRequest):
            direct = brknn_of_site(problem, request.site, ranks=ranks)
            assert isinstance(response, BrknnResponse), response
            assert response.members == direct.members
            assert response.influence == direct.influence
        else:
            direct = impact_of_new_site(problem, request.x, request.y,
                                        ranks=ranks)
            assert isinstance(response, ImpactResponse), response
            assert response.gain == direct.gain
            assert response.customer_ranks == direct.customer_ranks
            assert response.incumbent_losses == direct.incumbent_losses


def _time_rounds(run_batch, batch_size: int, rounds: int) -> dict:
    best = float("inf")
    total = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_batch()
        elapsed = time.perf_counter() - t0
        total += elapsed
        if elapsed < best:
            best = elapsed
    return {
        "rounds": rounds,
        "batch_requests": batch_size,
        "best_round_s": round(best, 6),
        "mean_round_s": round(total / rounds, 6),
        "qps": round(batch_size / best, 1),
    }


def _print_row(row: dict) -> None:
    print(f"  {row['arm']:<15} {row['qps']:>11.1f} queries/s "
          f"(batch={row['batch_requests']}, "
          f"best={row['best_round_s']:.4f}s)")


def run(rounds: int = 20) -> dict:
    problem = tiny_problem()
    ranks = knn_sites(problem)
    n_sites = problem.n_sites
    rows = []

    # -- in-process arms ------------------------------------------------- #
    with QueryService(store="ram", cache_bytes=0) as service:
        instance = service.publish(problem)
        batch = _bench_batch(instance.instance_id, n_sites)
        cold = service.execute(batch)               # warm-up + identity
        _assert_identity(batch, cold, problem, ranks)
        blessed = [_canonical(r) for r in cold]
        row = {"arm": "inprocess_cold",
               **_time_rounds(lambda: service.execute(batch),
                              len(batch), rounds)}
    rows.append(row)
    _print_row(row)

    with QueryService(store="ram") as service:
        instance = service.publish(problem)
        batch = _bench_batch(instance.instance_id, n_sites)
        miss_pass = service.execute(batch)          # fills the cache
        hit_pass = service.execute(batch)           # answered from it
        # Bit-identity before timing: cached bytes == fresh bytes.
        assert [_canonical(r) for r in miss_pass] == blessed
        assert [_canonical(r) for r in hit_pass] == blessed
        row = {"arm": "inprocess_warm",
               **_time_rounds(lambda: service.execute(batch),
                              len(batch), rounds)}
    rows.append(row)
    _print_row(row)

    # -- socket arms ----------------------------------------------------- #
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
    os.makedirs(out_dir, exist_ok=True)
    for arm, cache_bytes in (("socket_cold", 0), ("socket_warm", None)):
        proc, host, port = _boot_daemon(out_dir, "memmap",
                                        cache_bytes=cache_bytes)
        try:
            with ServeClient(host, port) as client:
                instance_id = client.publish(publish_doc("memmap"))
                batch = _bench_batch(instance_id, n_sites)
                first = client.query(batch)         # warm-up + identity
                _assert_identity(batch, first, problem, ranks)
                assert [_canonical(r) for r in first] == blessed
                row = {"arm": arm,
                       **_time_rounds(lambda: client.query(batch),
                                      len(batch), rounds)}
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        rows.append(row)
        _print_row(row)

    by_arm = {r["arm"]: r for r in rows}
    speedup = round(by_arm["inprocess_warm"]["qps"]
                    / by_arm["inprocess_cold"]["qps"], 2)
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"warm in-process arm is only {speedup}x the cold arm "
        f"(floor {MIN_CACHE_SPEEDUP}x)")
    return {
        "benchmark": "serve",
        "workload": ("fig11-tiny instance (800 uniform customers, "
                     "40 sites, k=2, seed 11); batch = BRkNN of every "
                     "site + 4x4 what-if grid"),
        "timing": ("best round of N; cold identity vs repro.core."
                   "queries and warm byte-identity vs cold asserted "
                   "before timing"),
        "rounds": rounds,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "identity": ("cold responses bit-identical to direct in-process "
                     "repro.core.queries calls; cached responses "
                     "byte-identical to cold ones"),
        "headline": {
            "warm_inprocess_qps": by_arm["inprocess_warm"]["qps"],
            "cold_inprocess_qps": by_arm["inprocess_cold"]["qps"],
            "cache_speedup": speedup,
            "socket_warm_qps": by_arm["socket_warm"]["qps"],
            "socket_cold_qps": by_arm["socket_cold"]["qps"],
        },
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed rounds per arm (best is reported)")
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke: 5 rounds")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_serve.json"))
    args = parser.parse_args(argv)
    rounds = 5 if args.tiny else args.rounds
    report = run(rounds=rounds)
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    headline = report["headline"]
    print(f"\nwarm repeat reads: {headline['warm_inprocess_qps']:.1f} "
          f"queries/s in-process ({headline['cache_speedup']:.1f}x "
          f"cold), {headline['socket_warm_qps']:.1f} queries/s over "
          "the socket")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
