"""RPR005 (store extension): backends ↔ docs/api.md ↔ CLI ↔ tests/store/."""

from repro.analysis.project_rules import STORE_REL, check_store_drift
from repro.store import STORE_NAMES

from tests.analysis.conftest import REPO_ROOT


class TestCurrentRepoIsInSync:
    def test_no_drift_findings(self):
        assert list(check_store_drift(REPO_ROOT)) == []

    def test_all_backends_registered(self):
        assert set(STORE_NAMES) == {"ram", "memmap"}


class TestSyntheticDrift:
    def test_undocumented_backend_flagged(self, tmp_path):
        """Strip one backend from a copy of docs/api.md: RPR005 names it."""
        doc = (REPO_ROOT / "docs" / "api.md").read_text()
        gutted = tmp_path / "api.md"
        gutted.write_text(doc.replace("memmap", "redacted"))
        findings = list(check_store_drift(REPO_ROOT, api_doc=gutted))
        assert any("memmap" in f.message and "docs/api.md" in f.message
                   for f in findings)

    def test_missing_doc_flags_every_backend(self, tmp_path):
        findings = list(check_store_drift(
            REPO_ROOT, api_doc=tmp_path / "missing.md"))
        flagged = {name for name in STORE_NAMES
                   if any(f"'{name}'" in f.message for f in findings)}
        assert flagged == set(STORE_NAMES)

    def test_unexercised_backend_flagged(self, tmp_path):
        empty = tmp_path / "store_tests"
        empty.mkdir()
        findings = list(check_store_drift(REPO_ROOT, tests_dir=empty))
        assert any("never named in tests/store/" in f.message
                   for f in findings)

    def test_findings_anchor_to_store_package(self, tmp_path):
        findings = list(check_store_drift(
            REPO_ROOT, api_doc=tmp_path / "missing.md"))
        assert findings
        assert all(f.path == STORE_REL and f.code == "RPR005"
                   for f in findings)
