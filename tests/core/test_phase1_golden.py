"""Golden Phase I searches, and agreement with the reference solver.

``phase1_golden.json`` pins the best-first search on a fixed grid of
instances: the 9 ``{uniform, normal, clustered} x k in {1, 2, 4}`` cases
(seeds from ``zlib.crc32``, not ``hash()``, whose str hashes are salted
per process), 6 random seeds and one ``top_t=3`` case.  Each record holds
the exact score (``repr``), every ``MaxFirstStats`` counter in schema
order, and each region's cover, score and boundary arcs, sorted by cover.
The records were written while the solver still carried a second,
per-child Phase I loop, and both loops produced them identically; one
file serves both kernel arms (compiled and ``REPRO_NO_CKERNEL=1``).

The golden comparison is exact, so it also flags any change of search
order.  Two checks that share no machinery with the search back it: the
brute-force reference solver must reach the same score, and
``verify_result`` must accept every result.

A change that moves a search on purpose re-records the cases with
:func:`record` and says why.

:class:`TestReferenceAgreement` solves seven more instances outside the
golden grid (three distributions, four ``k=2`` seeds) and checks each
score against the brute-force reference solver.
"""

import functools
import json
import zlib
from pathlib import Path

import pytest

from repro.baselines.reference import reference_solve_nlcs
from repro.core.maxfirst import MaxFirst
from repro.core.nlc import build_nlcs
from repro.core.problem import MaxBRkNNProblem
from repro.core.verify import verify_result
from repro.datasets.synthetic import synthetic_instance

from tests.conftest import assert_scores_close

GOLDEN = Path(__file__).with_name("phase1_golden.json")
CASES = json.loads(GOLDEN.read_text())["cases"]
CASE_IDS = [case["name"] for case in CASES]


def build(seed, n_customers=160, n_sites=14, distribution="uniform", k=1):
    customers, sites = synthetic_instance(n_customers, n_sites,
                                          distribution, seed=seed)
    return build_nlcs(MaxBRkNNProblem(customers, sites, k=k))


@functools.lru_cache(maxsize=None)
def solved(name):
    """The case's NLC set and its solve (shared by the three checks)."""
    case = next(c for c in CASES if c["name"] == name)
    nlcs = build(case["seed"], case["customers"], case["sites"],
                 case["distribution"], case["k"])
    return nlcs, MaxFirst(top_t=case["top_t"]).solve_nlcs(nlcs)


def record(result):
    """The golden fields of a result: score, stats and regions."""
    regions = []
    for region in result.regions:
        shape = region.shape
        point = None if shape is None else shape.degenerate_point
        regions.append({
            "cover": list(region.cover),
            "score": repr(region.score),
            "arcs": [] if shape is None else [
                [a.circle.cx, a.circle.cy, a.circle.r, a.start, a.sweep]
                for a in shape.arcs],
            "point": None if point is None else [point.x, point.y],
        })
    regions.sort(key=lambda r: r["cover"])
    return {"score": repr(result.score), "stats": result.stats.as_dict(),
            "regions": regions}


class TestGoldenSearches:
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_search_matches_golden(self, case):
        _, result = solved(case["name"])
        got = record(result)
        assert got["score"] == case["score"]
        assert got["stats"] == case["stats"]
        assert ([r["cover"] for r in got["regions"]]
                == [r["cover"] for r in case["regions"]])
        assert got["regions"] == case["regions"]

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_score_matches_reference(self, case):
        nlcs, result = solved(case["name"])
        assert_scores_close(result.score, reference_solve_nlcs(nlcs).score,
                            context=case["name"])

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_result_verifies(self, case):
        _, result = solved(case["name"])
        report = verify_result(result)
        assert report.ok, report.issues


class TestReferenceAgreement:
    """MaxFirst against the reference solver, which shares no machinery
    with the search, on instances outside the golden grid."""

    @pytest.mark.parametrize("distribution", ["uniform", "normal",
                                              "clustered"])
    def test_matches_reference(self, distribution):
        seed = zlib.crc32(repr(("backend", distribution)).encode())
        nlcs = build(seed=seed, distribution=distribution)
        assert_scores_close(MaxFirst().solve_nlcs(nlcs).score,
                            reference_solve_nlcs(nlcs).score,
                            context=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_random_k2(self, seed):
        nlcs = build(seed=seed * 104729 + 3, k=2)
        assert_scores_close(MaxFirst().solve_nlcs(nlcs).score,
                            reference_solve_nlcs(nlcs).score,
                            context=f"seed={seed}")

