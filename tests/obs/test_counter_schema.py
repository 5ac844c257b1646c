"""Counter-key schema stability across solvers, degenerate instances,
and the checked-in BENCH_*.json artifacts (ISSUE 4 bugfix satellite:
degenerate no-NLC instances used to leave ``RunReport.counters``
empty on some solver paths)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.problem import MaxBRkNNProblem
from repro.core.quadrant import MAXFIRST_COUNTER_KEYS, MaxFirstStats
from repro.datasets.synthetic import synthetic_instance
from repro.engine import run_pipeline, solver_names
from repro.obs.metrics import COUNTER_KEYS

_REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def normal_problem():
    customers, sites = synthetic_instance(80, 8, "uniform", seed=11)
    return MaxBRkNNProblem(customers, sites, k=1)


@pytest.fixture(scope="module")
def degenerate_problem():
    """All-zero weights: no NLC survives, solvers short-circuit."""
    customers, sites = synthetic_instance(80, 8, "uniform", seed=11)
    return MaxBRkNNProblem(customers, sites, k=1,
                           weights=np.zeros(customers.shape[0]))


class TestStableKeySets:
    @pytest.mark.parametrize("solver", solver_names())
    def test_normal_and_degenerate_share_keys(self, solver,
                                              normal_problem,
                                              degenerate_problem):
        _, normal = run_pipeline(solver, normal_problem)
        _, degenerate = run_pipeline(solver, degenerate_problem)
        assert list(normal.counters) == list(degenerate.counters)
        assert all(v == 0 for v in degenerate.counters.values())

    @pytest.mark.parametrize("solver", solver_names())
    def test_registry_keys_present_on_every_solver(self, solver,
                                                   normal_problem):
        _, report = run_pipeline(solver, normal_problem)
        assert set(COUNTER_KEYS) <= set(report.counters)

    def test_maxfirst_reports_full_stats_schema(self, normal_problem):
        _, report = run_pipeline("maxfirst", normal_problem)
        assert set(MAXFIRST_COUNTER_KEYS) <= set(report.counters)
        # Solver keys lead, in MaxFirstStats order, so existing report
        # consumers (fig13, ablations) keep their key positions.
        assert list(report.counters)[:len(MAXFIRST_COUNTER_KEYS)] \
            == list(MAXFIRST_COUNTER_KEYS)

    def test_maxfirst_keys_tuple_matches_stats_dataclass(self):
        assert MAXFIRST_COUNTER_KEYS \
            == tuple(MaxFirstStats().as_dict().keys())

    def test_serial_sharded_matches_maxfirst_schema(self, normal_problem):
        _, single = run_pipeline("maxfirst", normal_problem)
        _, sharded = run_pipeline("maxfirst-sharded", normal_problem,
                                  shards=2, mode="serial")
        assert list(single.counters) == list(sharded.counters)


class TestBenchArtifacts:
    def test_phase1_golden_stats_share_maxfirst_stats_schema(self):
        path = _REPO_ROOT / "tests" / "core" / "phase1_golden.json"
        cases = json.loads(path.read_text())["cases"]
        assert cases, "phase1_golden.json holds no cases"
        for case in cases:
            assert tuple(case["stats"].keys()) == MAXFIRST_COUNTER_KEYS

    def test_gate_baseline_counters_are_known(self):
        from repro.obs.gate import GATED_COUNTERS, SERVE_GATED_COUNTERS

        path = _REPO_ROOT / "bench-baselines" / "counters_tiny.json"
        if not path.exists():
            pytest.skip("gate baseline not present")
        counters = json.loads(path.read_text())["counters"]
        known = set(MAXFIRST_COUNTER_KEYS) | set(COUNTER_KEYS)
        for key in counters:
            arm, _, name = key.rpartition("/")
            assert arm, f"flat key {key!r} lacks an arm prefix"
            assert name in known
            if arm.startswith("serve_"):
                assert name in SERVE_GATED_COUNTERS
            else:
                assert name in GATED_COUNTERS
