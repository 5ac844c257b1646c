"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from harness import Ledger, Span, Tracer, percentile, self_times
from reference import CpuCost, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_child_time():
    # op [0, 10] has children a [1, 4] and b [3, 6] (overlapping: 5 s
    # covered) and c [8, 9]; a has its own child d [2, 3].
    spans = [Span(1, "op", 0.0, 10.0, None, 1),
             Span(2, "a", 1.0, 4.0, 1, 1),
             Span(3, "b", 3.0, 6.0, 1, 1),
             Span(4, "c", 8.0, 9.0, 1, 1),
             Span(5, "d", 2.0, 3.0, 2, 1)]
    own = self_times(spans)
    assert own == pytest.approx({"op": 4.0, "a": 2.0, "b": 3.0, "c": 1.0,
                                 "d": 1.0})


def test_tracer_nests_spans_and_wrap_restores():
    tracer = Tracer(True)

    class Box:
        @staticmethod
        def work(x):
            return x + 1

    with tracer.wrap(Box, "work", "layer"):
        with tracer.span("op", rid=7):
            assert Box.work(1) == 2
    assert Box.work(1) == 2 and len(tracer.spans) == 2
    inner, outer = tracer.spans
    assert (inner.name, inner.parent, inner.rid) == ("layer", outer.sid, 7)
    disabled = Tracer(False)
    with disabled.span("op"):
        pass
    assert disabled.spans == []


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(values[:999], 99)
    assert percentile(values[:20], 50) == 10
    with pytest.raises(ValueError):
        percentile(values[:19], 50)


def test_error_rate_counts_failed_and_refused():
    ledger = Ledger()
    for _ in range(6):
        ledger.ok()
    ledger.fail("error")
    ledger.fail("http")
    ledger.fail("refused")
    ledger.fail("refused")
    assert ledger.attempted == 10
    assert ledger.failed == 4
    assert ledger.failures == {"error": 1, "http": 1, "refused": 2}
    assert ledger.error_rate == pytest.approx(0.4)


def test_cpu_cost_divides_each_slice_by_the_references_around_it():
    refs = iter([1.0, 3.0, 1.0])
    cost = CpuCost(reference=lambda: next(refs))
    cost.add(4.0)  # references 1 and 3 around it: 4 / 2
    cost.add(6.0)  # references 3 and 1 around it: 6 / 2
    assert cost.units == pytest.approx(5.0)
    assert cost.refs == [1.0, 3.0, 1.0]
    assert Reference()() > 0.0
    assert Reference(os.sched_getaffinity(0))() > 0.0


def test_benchmark_json_shape():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_checks_answers_and_emits_every_metric(tmp_path, trace):
    env = dict(os.environ, REPRO_SANITIZE="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
         "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "REPRO_SANITIZE" not in proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
                for m in spec}
    assert set(result["metrics"]) == expected
    for name in expected:
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and value == value, name
    # Golden answers are pinned for the default seed's smoke instances.
    assert "golden: " in proc.stdout
    assert "byte-identical" in proc.stdout
    assert not list((tmp_path / "work").glob("repro-nlc-*"))
    if trace:
        for w in SPEC["workloads"]:
            share = result["metrics"][f"{w['name']}.trace.attributed_share"]
            assert share["value"] >= 0.95, w["name"]
