"""The REPRO_SANITIZE lifecycle ledger: leaks are caught, balance passes.

These tests drive :mod:`repro.store.sanitize` directly (enable/reset in
a fixture) so they work whether or not the surrounding run exported
``REPRO_SANITIZE=1``.  The deliberate-leak cases prove the sanitizer
*fails* on a leak — without them a silent no-op ledger would pass CI
forever.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import store as nlc_store
from repro.obs import metrics as obs_metrics
from repro.store import sanitize
from repro.store.base import soa_arrays

from tests.store.test_backends import _nlcs


@pytest.fixture(autouse=True)
def _fresh_ledger():
    """Record into a fresh ledger for each test, then restore whatever
    mode the surrounding session runs in (REPRO_SANITIZE=1 keeps its
    ledger via enable(); plain runs go back to disabled)."""
    was_active = sanitize.active()
    sanitize.enable()
    sanitize.reset()
    yield
    nlc_store.detach()
    if was_active:
        sanitize.reset()
    else:
        sanitize.disable()


class TestBalancedLifecyclesPass:
    @pytest.mark.parametrize("backend", ("ram", "memmap"))
    def test_publish_close_is_clean(self, backend):
        owner = nlc_store.publish(_nlcs(), backend)
        views = nlc_store.attach(owner.handle)
        assert soa_arrays(views)[0].shape[0] == len(_nlcs())
        nlc_store.detach()
        owner.close()
        sanitize.check()  # does not raise
        assert sanitize.violations() == []

    def test_writer_finalize_is_clean(self):
        nlcs = _nlcs()
        writer = nlc_store.writer(len(nlcs), "memmap")
        writer.append(soa_arrays(nlcs))
        sealed = writer.finalize()
        sealed.close()
        sanitize.check()

    def test_writer_abort_is_clean(self):
        writer = nlc_store.writer(16, "memmap")
        writer.abort()
        sanitize.check()

    def test_task_brackets_balance(self):
        with sanitize.task("solve_tile"):
            pass
        sanitize.check()


class TestDeliberateLeaksFail:
    def test_unclosed_memmap_owner_raises_naming_this_file(self):
        owner = nlc_store.publish(_nlcs(), "memmap")
        try:
            with pytest.raises(sanitize.StoreLeakError) as excinfo:
                sanitize.check()
            message = str(excinfo.value)
            assert "never closed" in message
            assert "test_sanitize.py" in message  # the creating site
        finally:
            owner.close()

    def test_unfinalized_writer_raises(self):
        writer = nlc_store.writer(8, "memmap")
        try:
            with pytest.raises(sanitize.StoreLeakError) as excinfo:
                sanitize.check()
            assert "never finalized" in str(excinfo.value)
        finally:
            writer.abort()

    def test_task_imbalance_raises(self):
        ctx = sanitize.task("solve_tile")
        ctx.__enter__()
        with pytest.raises(sanitize.StoreLeakError) as excinfo:
            sanitize.check()
        assert "task imbalance" in str(excinfo.value)
        ctx.__exit__(None, None, None)
        sanitize.check()

    def test_orphaned_store_file_is_reported_once(self, tmp_path,
                                                  monkeypatch):
        """A ``repro-nlc-{pid}-*`` file no owner holds is an orphan; an
        unclosed owner's own file is reported as that owner only."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        owner = nlc_store.publish(_nlcs(), "memmap")
        orphan = tmp_path / f"repro-nlc-{os.getpid()}-orphan.nlc"
        orphan.touch()
        try:
            found = sanitize.violations()
            assert [v for v in found if v.startswith("orphaned")] \
                == [f"orphaned store file on disk: {orphan}"]
            assert sum(owner.key in v for v in found) == 1
        finally:
            owner.close()
            orphan.unlink()

    def test_violation_count_reaches_the_gauge(self):
        owner = nlc_store.publish(_nlcs(), "memmap")
        try:
            with pytest.raises(sanitize.StoreLeakError):
                sanitize.check()
            snapshot = obs_metrics.REGISTRY.gauges_snapshot()
            assert snapshot["store_sanitize_violations"] >= 1.0
        finally:
            owner.close()
        sanitize.check()
        snapshot = obs_metrics.REGISTRY.gauges_snapshot()
        assert snapshot["store_sanitize_violations"] == 0.0


class TestLedgerModes:
    def test_disabled_hooks_are_noops(self):
        sanitize.disable()
        assert not sanitize.active()
        owner = nlc_store.publish(_nlcs(), "memmap")
        owner.close()
        assert sanitize.violations() == []
        sanitize.check()  # nothing recorded, nothing raised

    def test_reset_drops_recorded_state(self):
        owner = nlc_store.publish(_nlcs(), "memmap")
        assert sanitize.violations(scan_disk=False) != []
        sanitize.reset()
        assert sanitize.violations(scan_disk=False) == []
        owner.close()  # release the real file either way

    def test_ram_owners_are_never_violations(self):
        nlc_store.publish(_nlcs(), "ram")  # dropped without close
        assert sanitize.violations(scan_disk=False) == []


class TestSessionHookEndToEnd:
    def test_leaking_suite_fails_under_repro_sanitize(self, tmp_path):
        """The CI wiring, for real: a pytest run whose only test leaks
        a memmap owner passes test-wise but exits non-zero under
        REPRO_SANITIZE=1 via the sessionfinish audit."""
        repo_root = Path(__file__).resolve().parents[2]
        # Delegate to the REAL hook (not a copy) so this exercises the
        # exact function CI runs.
        (tmp_path / "conftest.py").write_text(
            "from tests.conftest import pytest_sessionfinish  # noqa: F401\n",
            encoding="utf-8")
        (tmp_path / "test_leak.py").write_text(
            "import numpy as np\n"
            "from repro import store\n"
            "from repro.index.circleset import CircleSet\n"
            "\n"
            "def test_leaks_an_owner():\n"
            "    f = np.zeros(4)\n"
            "    i = np.zeros(4, dtype=np.int64)\n"
            "    store.publish(CircleSet(f, f, f + 0.1, f,\n"
            "                            owners=i, levels=i), 'memmap')\n",
            encoding="utf-8")
        env = {"PYTHONPATH": f"{repo_root / 'src'}:{repo_root}",
               "PATH": "/usr/bin:/bin", "HOME": "/tmp",
               "REPRO_SANITIZE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "test_leak.py",
             "-p", "no:cacheprovider"],
            cwd=tmp_path, capture_output=True, text=True,
            env=env, timeout=120)
        assert proc.returncode != 0, proc.stdout + proc.stderr
        combined = proc.stdout + proc.stderr
        assert "REPRO_SANITIZE" in combined
        assert "never closed" in combined
        assert "test_leak.py" in combined  # the creating call site
