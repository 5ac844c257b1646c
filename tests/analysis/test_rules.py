"""Per-rule fixture tests: known true positives, clean twins, pragmas.

Each rule is exercised against a fixture file with deliberate violations
(every finding must carry that rule's code, with the expected count) and
a clean twin that must produce zero findings.  Running the bad fixture
with the rule ignored must also be clean — proof that the rule, not an
accident of the driver, produces the findings.
"""

import pytest

from repro.analysis.linter import lint_file
from repro.analysis.loader import load_module
from repro.analysis.rules import all_rules

from tests.analysis.conftest import FIXTURES

# (code, bad fixture, expected finding count, clean twin, pinned relpath)
CASES = [
    ("RPR001", "rpr001_bad.py", 2, "rpr001_clean.py", None),
    ("RPR002", "rpr002_bad.py", 3, "rpr002_clean.py", None),
    ("RPR003", "rpr003_bad.py", 3, "rpr003_clean.py", None),
    ("RPR004", "rpr004_bad.py", 4, "rpr004_clean.py", None),
    ("RPR006", "rpr006_bad.py", 4, "rpr006_clean.py", None),
    ("RPR007", "rpr007_bad.py", 3, "rpr007_clean.py",
     "src/repro/index/{name}"),
    ("RPR101", "rpr101_bad.py", 3, "rpr101_clean.py",
     "src/repro/engine/{name}"),
    ("RPR102", "rpr102_bad.py", 4, "rpr102_clean.py", None),
    ("RPR103", "rpr103_bad.py", 3, "rpr103_clean.py",
     "src/repro/core/{name}"),
    ("RPR104", "rpr104_bad.py", 3, "rpr104_clean.py",
     "src/repro/engine/{name}"),
    ("RPR105", "rpr105_bad.py", 3, "rpr105_clean.py", None),
    ("RPR106", "rpr106_bad.py", 3, "rpr106_clean.py", None),
]


def _lint_fixture(name, relpath_template=None, **kwargs):
    relpath = (relpath_template.format(name=name)
               if relpath_template else f"fixtures/{name}")
    return lint_file(FIXTURES / name, relpath=relpath, is_test=False,
                     **kwargs)


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "code,bad,count,clean,relpath", CASES,
        ids=[case[0] for case in CASES])
    def test_bad_fixture_fires(self, code, bad, count, clean, relpath):
        findings = _lint_fixture(bad, relpath)
        assert [f.code for f in findings] == [code] * count

    @pytest.mark.parametrize(
        "code,bad,count,clean,relpath", CASES,
        ids=[case[0] for case in CASES])
    def test_clean_twin_is_clean(self, code, bad, count, clean, relpath):
        assert _lint_fixture(clean, relpath) == []

    @pytest.mark.parametrize(
        "code,bad,count,clean,relpath", CASES,
        ids=[case[0] for case in CASES])
    def test_ignoring_the_rule_silences_the_fixture(
            self, code, bad, count, clean, relpath):
        """The findings come from THIS rule: ignore it and the bad
        fixture lints clean (the fixture test would fail without the
        rule, and passes with it)."""
        assert _lint_fixture(bad, relpath, ignore=[code]) == []

    def test_every_rule_has_a_fixture_case(self):
        assert ({case[0] for case in CASES}
                == {r.code for r in all_rules()})


class TestPragmaHygiene:
    def test_malformed_pragmas_reported_and_do_not_suppress(self):
        findings = _lint_fixture("rpr000_bad.py")
        codes = sorted(f.code for f in findings)
        # unknown tag + empty reason → two RPR000; the empty-reason
        # pragma must NOT suppress the float equality beneath it.
        assert codes == ["RPR000", "RPR000", "RPR002"]

    def test_near_miss_pragma_is_rpr000_malformed(self, tmp_path):
        """A comment that looks like a pragma but fails the grammar
        (missing parens) is reported, not silently ignored."""
        bad = tmp_path / "near_miss.py"
        # built by concatenation so the pragma scanner (which reads raw
        # source lines, string literals included) ignores THIS file
        near_miss = "# repro" + ": float-eq missing the reason parens"
        bad.write_text(
            f"def f(x):\n    {near_miss}\n    return x == 0.0\n",
            encoding="utf-8")
        findings = lint_file(bad, relpath="src/near_miss.py")
        codes = sorted(f.code for f in findings)
        assert codes == ["RPR000", "RPR002"]
        rpr000 = next(f for f in findings if f.code == "RPR000")
        assert "malformed pragma" in rpr000.message
        assert "float-eq" in rpr000.message

    def test_stacked_pragmas_on_one_line(self, tmp_path):
        """Two pragmas on the same trailing comment each suppress their
        own rule on that line."""
        src = tmp_path / "stacked.py"
        src.write_text(
            "def f(x, cache={}):  "
            "# repro: mutable-default(shared on purpose) "
            "# repro: float-eq(exact sentinel)\n"
            "    return x == 0.0\n",
            encoding="utf-8")
        assert lint_file(src, relpath="src/stacked.py") == []

    def test_pragma_on_decorator_line_covers_the_def(self, tmp_path):
        """A pragma trailing a decorator suppresses a finding anchored
        on the decorated def's own line (the line below)."""
        src = tmp_path / "decorated.py"
        src.write_text(
            "def deco(fn):\n"
            "    return fn\n"
            "\n"
            "\n"
            "@deco  # repro: mutable-default(memo table shared on purpose)\n"
            "def f(x, cache={}):\n"
            "    return cache.setdefault(x, x)\n",
            encoding="utf-8")
        assert lint_file(src, relpath="src/decorated.py") == []

    def test_rule_messages_name_their_pragma(self):
        """Every finding message teaches its escape hatch (or the rule
        is scope-only like RPR005, tested elsewhere)."""
        for name in ("rpr001_bad.py", "rpr002_bad.py", "rpr003_bad.py",
                     "rpr006_bad.py"):
            relpath = None
            for finding in _lint_fixture(name, relpath):
                assert "repro:" in finding.message


class TestScoping:
    def test_rpr002_exempts_test_modules(self):
        module = load_module(FIXTURES / "rpr002_bad.py",
                             relpath="tests/test_bitident.py",
                             is_test=True)
        findings = lint_file(FIXTURES / "rpr002_bad.py",
                             relpath="tests/test_bitident.py",
                             is_test=True)
        assert module.is_test
        assert findings == []

    def test_rpr006_covers_the_halo_loader(self, tmp_path):
        src = tmp_path / "planner.py"
        src.write_text(
            "from repro.index._ckernel import load_halo_kernel\n"
            "\n"
            "def scan():\n"
            "    return load_halo_kernel()\n",
            encoding="utf-8")
        findings = lint_file(src, relpath="src/planner.py")
        assert [f.code for f in findings] == ["RPR006"]
        src.write_text(src.read_text(encoding="utf-8")
                       + "# REPRO_NO_CKERNEL=1 selects the numpy pass.\n",
                       encoding="utf-8")
        assert lint_file(src, relpath="src/planner.py") == []

    def test_rpr006_exempts_test_modules(self):
        assert lint_file(FIXTURES / "rpr006_bad.py",
                         relpath="tests/test_cli.py", is_test=True) == []

    def test_rpr007_scoped_to_index_engine_and_store(self):
        outside = lint_file(FIXTURES / "rpr007_bad.py",
                            relpath="src/repro/bench/runner.py",
                            is_test=False)
        assert outside == []
        for relpath in ("src/repro/engine/sharded.py",
                        "src/repro/store/ram.py"):
            inside = lint_file(FIXTURES / "rpr007_bad.py",
                               relpath=relpath, is_test=False)
            assert {f.code for f in inside} == {"RPR007"}, relpath
            clean = lint_file(FIXTURES / "rpr007_clean.py",
                              relpath=relpath, is_test=False)
            assert clean == [], relpath

    def test_syntax_error_becomes_rpr000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        findings = lint_file(broken, relpath="src/broken.py")
        assert [f.code for f in findings] == ["RPR000"]
        assert "does not parse" in findings[0].message
