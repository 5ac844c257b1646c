"""The counter perf gate: band comparison, baseline files, CLI tool.

The acceptance criterion "fails on a seeded counter regression" is
demonstrated end to end: a baseline perturbed below the current counters
makes ``python -m repro.obs.gate`` exit non-zero.
"""

import json

import pytest

from repro.obs.gate import (DEFAULT_BAND, GATED_COUNTERS,
                            SERVE_GATED_COUNTERS, collect_counters,
                            collect_serve_counters, compare, main)


@pytest.fixture(scope="module")
def tiny_counters():
    """One real gate collection run (module-scoped: ~seconds)."""
    return collect_counters("tiny")


@pytest.fixture(scope="module")
def serve_counters():
    """One scripted serve-workload run (module-scoped)."""
    return collect_serve_counters("tiny")


class TestCompare:
    BASE = {"fig13_uniform/generated": 1000, "fig13_uniform/splits": 200}

    def test_identical_passes(self):
        ok, messages = compare(dict(self.BASE), self.BASE)
        assert ok
        assert messages == []

    def test_within_band_passes(self):
        current = {"fig13_uniform/generated": 1050,
                   "fig13_uniform/splits": 195}
        ok, messages = compare(current, self.BASE)
        assert ok

    def test_regression_fails(self):
        current = {"fig13_uniform/generated": 1200,
                   "fig13_uniform/splits": 200}
        ok, messages = compare(current, self.BASE)
        assert not ok
        assert any("FAIL" in m and "generated" in m for m in messages)

    def test_improvement_passes_with_hint(self):
        current = {"fig13_uniform/generated": 800,
                   "fig13_uniform/splits": 200}
        ok, messages = compare(current, self.BASE)
        assert ok
        assert any("update the baseline" in m for m in messages)

    def test_missing_baseline_key_fails(self):
        current = {"fig13_uniform/generated": 1000}
        ok, messages = compare(current, self.BASE)
        assert not ok

    def test_unexpected_current_key_fails(self):
        current = dict(self.BASE, extra=1)
        ok, _ = compare(current, self.BASE)
        assert not ok

    def test_band_boundaries_are_inclusive(self):
        base = {"k": 100}
        assert compare({"k": 110}, base, band=0.10)[0]
        assert not compare({"k": 111}, base, band=0.10)[0]
        ok, messages = compare({"k": 90}, base, band=0.10)
        assert ok and not any("improved" in m for m in messages)
        ok, messages = compare({"k": 89}, base, band=0.10)
        assert ok and any("improved" in m for m in messages)


class TestCollect:
    def test_arms_cover_fig11_sweep_and_fig13(self, tiny_counters):
        from repro.bench.config import get_profile

        profile = get_profile("tiny")
        arms = {key.rsplit("/", 1)[0] for key in tiny_counters}
        for distribution in ("uniform", "normal"):
            assert f"fig13_{distribution}" in arms
            for n_sites in profile.sites_sweep:
                assert f"fig11_{distribution}/sites={n_sites}" in arms
        # Every arm reports every gated counter.
        for arm in arms:
            for name in GATED_COUNTERS:
                assert f"{arm}/{name}" in tiny_counters

    def test_counters_are_deterministic(self, tiny_counters):
        assert collect_counters("tiny") == tiny_counters

    def test_real_work_was_counted(self, tiny_counters):
        assert tiny_counters["fig13_uniform/generated"] > 0
        assert tiny_counters["fig13_uniform/kernel_batches"] > 0


class TestCollectServe:
    def test_serve_arm_reports_every_gated_counter(self, serve_counters):
        assert set(serve_counters) == {
            f"serve_tiny/{name}" for name in SERVE_GATED_COUNTERS}

    def test_serve_counters_are_deterministic(self, serve_counters):
        assert collect_serve_counters("tiny") == serve_counters

    def test_real_requests_were_counted(self, serve_counters):
        assert serve_counters["serve_tiny/serve_requests"] > 0
        assert serve_counters["serve_tiny/serve_batches"] > 0

    def test_serve_collection_does_not_leak_into_registry(self):
        from repro.obs import metrics as _obs_metrics

        before = _obs_metrics.REGISTRY.snapshot()
        collect_serve_counters("tiny")
        after = _obs_metrics.REGISTRY.snapshot()
        for name in SERVE_GATED_COUNTERS:
            assert after.get(name, 0) == before.get(name, 0)


class TestMain:
    def test_write_then_pass(self, tiny_counters, tmp_path, capsys):
        baseline = tmp_path / "counters_tiny.json"
        assert main(["--scale", "tiny",
                     "--write-baseline", str(baseline)]) == 0
        assert main(["--scale", "tiny", "--baseline", str(baseline)]) == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_seeded_regression_fails(self, tiny_counters, tmp_path, capsys):
        # Perturb the blessed baseline downwards: the (unchanged) current
        # counters now read as a >10% regression and the gate must fail.
        perturbed = {
            key: max(1, int(value * 0.5))
            for key, value in tiny_counters.items()
        }
        baseline = tmp_path / "perturbed.json"
        baseline.write_text(json.dumps({"counters": perturbed}))
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"counters": tiny_counters}))
        code = main(["--baseline", str(baseline),
                     "--current", str(current)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_improvement_prints_update_hint(self, tiny_counters, tmp_path,
                                            capsys):
        inflated = {key: value * 2 for key, value in tiny_counters.items()}
        baseline = tmp_path / "inflated.json"
        baseline.write_text(json.dumps({"counters": inflated}))
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"counters": tiny_counters}))
        assert main(["--baseline", str(baseline),
                     "--current", str(current)]) == 0
        assert "update the baseline" in capsys.readouterr().out

    def test_missing_baseline_file_fails(self, tmp_path, tiny_counters,
                                         capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"counters": tiny_counters}))
        code = main(["--baseline", str(tmp_path / "nope.json"),
                     "--current", str(current)])
        assert code == 1

    def test_out_writes_metrics_artifact(self, tiny_counters, tmp_path):
        out = tmp_path / "metrics.json"
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"counters": tiny_counters}))
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"counters": tiny_counters}))
        assert main(["--baseline", str(baseline),
                     "--current", str(current), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["counters"] == tiny_counters


class TestCheckedInBaseline:
    def test_repo_baseline_matches_current_run(self, tiny_counters,
                                               serve_counters):
        """The committed baseline must pass against a fresh tiny run —
        the same check the CI perf-gate job performs on main."""
        from pathlib import Path

        baseline_path = Path(__file__).resolve().parents[2] \
            / "bench-baselines" / "counters_tiny.json"
        assert baseline_path.exists(), (
            "bench-baselines/counters_tiny.json is missing; regenerate "
            "with: PYTHONPATH=src python -m repro.obs.gate --scale tiny "
            "--write-baseline bench-baselines/counters_tiny.json")
        baseline = json.loads(baseline_path.read_text())["counters"]
        current = {**tiny_counters, **serve_counters}
        ok, messages = compare(current, baseline, band=DEFAULT_BAND)
        assert ok, messages
