"""End-to-end serve smoke: real daemon, real socket, identity-checked.

``python -m repro.serve.smoke --out DIR`` boots ``repro serve`` as a
subprocess on an ephemeral port, publishes the scripted workload
instance over the socket, replays the scripted batches through
:class:`~repro.serve.client.ServeClient`, and asserts every served
answer is **bit-identical** to a direct in-process
:mod:`repro.core.queries` / :class:`~repro.core.maxfirst.MaxFirst` /
:mod:`repro.core.heatmap` computation on the same problem.  The whole
script is then replayed a second time — the warm pass — and every
response must come back byte-identical, with the daemon's
``serve_cache_hits`` counter proving the repeats answered from the
result cache.  A graceful ``/shutdown`` then makes the daemon write
its Chrome trace and metrics.json into ``DIR`` (the CI serve-smoke job
uploads both).

Exit status 0 means every assertion held and the daemon exited cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from repro.core.queries import (brknn_of_site, impact_of_new_site,
                                knn_sites, site_influence)
from repro.serve.client import ServeClient
from repro.serve.protocol import (AnytimeSolveRequest, BrknnRequest,
                                  BrknnResponse, HeatmapRequest,
                                  HeatmapResponse, ImpactRequest,
                                  ImpactResponse, SiteInfluenceRequest,
                                  SiteInfluenceResponse, SolveRequest,
                                  SolveResponse, encode_response,
                                  request_key)
from repro.serve.workload import publish_doc, scripted_batches, tiny_problem
from repro.store import STORE_NAMES


def _boot_daemon(out_dir: str, store: str, cache_bytes: int | None = None
                 ) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` on an ephemeral port; return (proc, host,
    port) once the bound-address line appears."""
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--store", store,
           "--trace", os.path.join(out_dir, "serve_trace.json"),
           "--metrics", os.path.join(out_dir, "metrics.json")]
    if cache_bytes is not None:
        cmd += ["--cache-bytes", str(cache_bytes)]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src),
                    env.get("PYTHONPATH", "")) if p)
    # repro: unguarded-load(the daemon subprocess inherits the full
    # environment, REPRO_NO_CKERNEL included, so the numpy-fallback arm
    # exercises the numpy path end to end without this module gating
    # anything itself)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            env=env)
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    if not line.startswith("serving on "):
        proc.kill()
        raise RuntimeError(f"daemon did not announce itself: {line!r}")
    host, _, port = line.removeprefix("serving on ").rpartition(":")
    return proc, host, int(port)


def _canonical(response) -> str:
    """Byte-stable response encoding for warm/cold identity checks."""
    return json.dumps(encode_response(response), sort_keys=True,
                      separators=(",", ":"))


def _check_batch(requests, responses, problem, ranks, solve_reference,
                 heatmap_reference) -> int:
    """Assert served answers equal direct in-process computation."""
    checked = 0
    for request, response in zip(requests, responses):
        if isinstance(request, BrknnRequest):
            direct = brknn_of_site(problem, request.site, ranks=ranks)
            assert isinstance(response, BrknnResponse)
            assert response.members == direct.members
            assert response.influence == direct.influence
        elif isinstance(request, SiteInfluenceRequest):
            direct = site_influence(problem, ranks=ranks)
            assert isinstance(response, SiteInfluenceResponse)
            assert list(response.influence) == direct.tolist()
        elif isinstance(request, ImpactRequest):
            direct = impact_of_new_site(problem, request.x, request.y,
                                        ranks=ranks)
            assert isinstance(response, ImpactResponse)
            assert response.gain == direct.gain
            assert response.customer_ranks == direct.customer_ranks
            assert response.incumbent_losses == direct.incumbent_losses
        elif isinstance(request, SolveRequest):
            assert isinstance(response, SolveResponse)
            assert response.score == solve_reference.score
            assert response.upper_bound == response.score
            assert ({r.cover for r in response.regions}
                    == {r.cover for r in solve_reference.regions})
        elif isinstance(request, AnytimeSolveRequest):
            assert isinstance(response, SolveResponse)
            assert response.upper_bound >= response.score > 0.0
            assert (response.score * (1.0 + request.epsilon) + 1e-9
                    >= response.upper_bound)
            assert response.score <= solve_reference.score + 1e-9
        elif isinstance(request, HeatmapRequest):
            assert isinstance(response, HeatmapResponse)
            direct = heatmap_reference[(request.nx, request.ny)]
            assert (response.nx, response.ny) == (direct.nx, direct.ny)
            assert response.bounds == direct.bounds
            assert list(response.lower) == direct.lower.ravel().tolist()
            assert list(response.upper) == direct.upper.ravel().tolist()
        else:  # pragma: no cover - script only uses the kinds above
            raise AssertionError(f"unchecked request {request!r}")
        checked += 1
    return checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="serve-smoke-artifacts",
                        help="artifact directory (trace + metrics)")
    parser.add_argument("--store", default="memmap",
                        choices=STORE_NAMES)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    problem = tiny_problem()
    ranks = knn_sites(problem)
    # In-process exact reference for the solve requests.
    from repro.serve.instance import InstanceRegistry
    from repro.serve.service import execute_requests

    registry = InstanceRegistry(store="ram")
    local = registry.publish(problem)
    (solve_reference,), _cert = execute_requests(
        local.problem, local.ranks, local.nlcs, local.space,
        [SolveRequest(local.instance_id)], local.certificate())
    # In-process exact reference for the heat-map requests: one fresh
    # (unseeded) build per grid size the script asks for.
    from repro.core.heatmap import build_heatmap

    grids = {(request.nx, request.ny)
             for batch in scripted_batches("grid-probe")
             for request in batch if isinstance(request, HeatmapRequest)}
    heatmap_reference = {
        grid: build_heatmap(local.nlcs, local.space, *grid)
        for grid in sorted(grids)}
    registry.close()

    proc, host, port = _boot_daemon(args.out, args.store)
    checked = 0
    try:
        with ServeClient(host, port) as client:
            health = client.health()
            assert health["status"] == "ok", health
            instance_id = client.publish(publish_doc(args.store))
            print(f"published {instance_id} on {host}:{port}")
            batches = scripted_batches(instance_id)
            first_pass: list[list[str]] = []
            for batch in batches:
                responses = client.query(batch)
                checked += _check_batch(batch, responses, problem,
                                        ranks, solve_reference,
                                        heatmap_reference)
                first_pass.append([_canonical(r) for r in responses])
            # Warm repeat: the same script again, byte-identical answers
            # this time served from the daemon's result cache.
            for batch, blessed in zip(batches, first_pass):
                warm = [_canonical(r) for r in client.query(batch)]
                assert warm == blessed, "warm repeat diverged"
            metrics = client.metrics()
            counters = metrics["counters"]
            served = counters.get("serve_requests", 0)
            # Every request of a POST counts on arrival, duplicates
            # and cache hits included, so each pass logs at least its
            # unique keys.
            unique = sum(len({request_key(r) for r in batch})
                         for batch in batches)
            assert served >= 2 * unique, (served, unique)
            assert counters.get("serve_cache_hits", 0) > 0, counters
            client.shutdown()
        returncode = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    output = proc.stdout.read() if proc.stdout else ""
    if returncode != 0:
        print(output)
        print(f"daemon exited with {returncode}", file=sys.stderr)
        return 1
    for name in ("serve_trace.json", "metrics.json"):
        path = os.path.join(args.out, name)
        if not os.path.exists(path):
            print(f"missing artifact {path}", file=sys.stderr)
            return 1
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)  # must be valid JSON
    print(f"serve smoke OK: {checked} served answers bit-identical to "
          f"in-process computation, warm repeat byte-identical from "
          f"cache; artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    status = main()
    print(f"({time.perf_counter() - t0:.1f}s)")
    sys.exit(status)
