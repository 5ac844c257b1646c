"""RPR005 — registry/docs drift: the project-level cross-check.

Unlike the per-module AST rules, this rule sees the whole repository: it
loads the live solver registry (:mod:`repro.engine.registry`) and
cross-checks it against the documentation, the CLI, and the test suite.
The sharded-grid bug shipped in PR 2 precisely because a behavioural
contract (every requested shard covered) lived only in prose; this rule
makes the *name-level* contracts mechanical:

* every registered solver is documented in ``docs/api.md``;
* every registered solver is offered by the CLI ``--solver`` choices;
* every registered solver name appears somewhere in ``tests/`` (a solver
  nobody exercises has undeclared capabilities);
* declared capabilities match what tests exercise: ``exact=True``
  requires the cross-solver agreement suite (it selects on
  ``exact_only=True``), and ``supports_top_t=True`` requires a test that
  names the solver *and* mentions ``top_t``.

The checks are name-level heuristics on purpose — they catch drift, not
semantics; the agreement tests themselves prove the semantics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding

REGISTRY_REL = "src/repro/engine/registry.py"


def find_repo_root(start: Path) -> Path | None:
    """Nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    for candidate in (start, *start.resolve().parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _registration_line(registry_source: str, name: str) -> int:
    """Best-effort line of ``name``'s registration for finding anchors."""
    needle = f'"{name}"'
    for lineno, line in enumerate(registry_source.splitlines(), start=1):
        if needle in line and "register_solver" in registry_source:
            return lineno
    return 1


def _cli_solver_choices() -> tuple[str, ...] | None:
    """The ``--solver`` choices the CLI actually offers, or None."""
    from repro.cli import _build_parser

    parser = _build_parser()
    for action in parser._actions:  # noqa: SLF001 — argparse introspection
        if not hasattr(action, "choices") or not isinstance(
                action.choices, dict):
            continue
        solve = action.choices.get("solve")
        if solve is None:
            continue
        for sub_action in solve._actions:
            if "--solver" in getattr(sub_action, "option_strings", ()):
                choices = sub_action.choices
                return tuple(choices) if choices is not None else None
    return None


def check_registry_drift(
        repo_root: Path, *,
        api_doc: Path | None = None,
        tests_dir: Path | None = None) -> Iterator[Finding]:
    """Run the RPR005 cross-checks rooted at ``repo_root``.

    ``api_doc`` and ``tests_dir`` exist so drift tests can point the
    check at synthetic fixtures; production use passes only the root.
    """
    registry_path = repo_root / REGISTRY_REL
    if not registry_path.is_file():
        return  # not this repository's layout — rule does not apply
    api_doc = api_doc or repo_root / "docs" / "api.md"
    tests_dir = tests_dir or repo_root / "tests"
    relpath = REGISTRY_REL
    registry_source = registry_path.read_text(encoding="utf-8")

    from repro.engine.registry import get_solver_spec, solver_names

    names = solver_names()
    doc_text = (api_doc.read_text(encoding="utf-8")
                if api_doc.is_file() else "")

    test_texts: dict[str, str] = {}
    if tests_dir.is_dir():
        for test_file in sorted(tests_dir.rglob("*.py")):
            if "fixtures" in test_file.parts:
                continue
            test_texts[str(test_file)] = test_file.read_text(
                encoding="utf-8", errors="replace")
    all_tests = "\n".join(test_texts.values())

    cli_choices = _cli_solver_choices()

    for name in names:
        spec = get_solver_spec(name)
        line = _registration_line(registry_source, name)

        if name not in doc_text:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"solver '{name}' is registered but absent from "
                         f"docs/api.md — document it (name, capabilities,"
                         " options)"))

        if cli_choices is not None and name not in cli_choices:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"solver '{name}' is registered but missing "
                         "from the CLI --solver choices"))

        if name not in all_tests:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"solver '{name}' is registered but never named "
                         "in tests/ — declared capabilities are "
                         "unexercised"))
            continue  # the capability checks below would double-report

        caps = spec.capabilities
        if caps.exact and "exact_only=True" not in all_tests:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"solver '{name}' declares exact=True but no "
                         "test selects solver_names(exact_only=True) — "
                         "the cross-solver agreement suite is the "
                         "mechanical witness for exactness"))
        if caps.supports_top_t and not any(
                name in text and "top_t" in text
                for text in test_texts.values()):
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"solver '{name}' declares supports_top_t=True "
                         "but no test exercises top_t with it"))

    if cli_choices is None:
        yield Finding(
            path=relpath, line=1, col=1, code="RPR005",
            message=("could not introspect the CLI --solver choices "
                     "(argparse layout changed?) — RPR005 cannot verify "
                     "the CLI surface"))


METRICS_REL = "src/repro/obs/metrics.py"
OBS_DOC_REL = "docs/observability.md"
GATE_BASELINE_REL = "bench-baselines/counters_tiny.json"


def _key_line(source: str, key: str) -> int:
    """Best-effort line where ``key`` is declared, for finding anchors."""
    needle = f'"{key}"'
    for lineno, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return lineno
    return 1


def check_obs_drift(repo_root: Path, *,
                    obs_doc: Path | None = None,
                    tests_dir: Path | None = None) -> Iterator[Finding]:
    """RPR005 for the observability layer: counters ↔ docs ↔ CLI ↔ gate.

    The counter glossary in ``docs/observability.md`` is the contract the
    perf gate's ±band diffs are read against; a counter nobody documents
    (or a gated counter nobody emits) silently erodes the gate.  Checks:

    * every ``repro.obs.metrics`` counter and gauge key is documented in
      ``docs/observability.md``;
    * the CLI still offers ``--trace`` / ``--trace-format`` (the doc's
      Perfetto how-to depends on them);
    * ``repro.obs`` is exercised somewhere in ``tests/``;
    * the checked-in gate baseline parses and gates only known counters.
    """
    metrics_path = repo_root / METRICS_REL
    if not metrics_path.is_file():
        return  # not this repository's layout — rule does not apply
    obs_doc = obs_doc or repo_root / OBS_DOC_REL
    tests_dir = tests_dir or repo_root / "tests"
    relpath = METRICS_REL
    metrics_source = metrics_path.read_text(encoding="utf-8")

    from repro.obs.gate import GATED_COUNTERS, SERVE_GATED_COUNTERS
    from repro.obs.metrics import COUNTER_KEYS, GAUGE_KEYS

    doc_text = (obs_doc.read_text(encoding="utf-8")
                if obs_doc.is_file() else "")
    if not doc_text:
        yield Finding(
            path=relpath, line=1, col=1, code="RPR005",
            message=(f"{OBS_DOC_REL} is missing — the counter glossary "
                     "and gate docs are the contract for repro.obs"))
    for key in (*COUNTER_KEYS, *GAUGE_KEYS):
        if doc_text and key not in doc_text:
            yield Finding(
                path=relpath, line=_key_line(metrics_source, key),
                col=1, code="RPR005",
                message=(f"metric '{key}' is registered in repro.obs but "
                         f"absent from {OBS_DOC_REL} — add it to the "
                         "counter glossary"))

    cli_path = repo_root / "src" / "repro" / "cli.py"
    cli_source = (cli_path.read_text(encoding="utf-8")
                  if cli_path.is_file() else "")
    for flag in ("--trace", "--trace-format"):
        if f'"{flag}"' not in cli_source:
            yield Finding(
                path=relpath, line=1, col=1, code="RPR005",
                message=(f"the CLI no longer offers {flag} — the "
                         f"{OBS_DOC_REL} trace how-to depends on it"))

    if tests_dir.is_dir():
        exercised = any("repro.obs" in test_file.read_text(
                            encoding="utf-8", errors="replace")
                        for test_file in sorted(tests_dir.rglob("*.py"))
                        if "fixtures" not in test_file.parts)
        if not exercised:
            yield Finding(
                path=relpath, line=1, col=1, code="RPR005",
                message=("repro.obs is never imported in tests/ — the "
                         "tracer/metrics/gate contracts are unexercised"))

    baseline_path = repo_root / GATE_BASELINE_REL
    if baseline_path.is_file():
        import json

        try:
            counters = json.loads(
                baseline_path.read_text(encoding="utf-8"))["counters"]
        except (json.JSONDecodeError, KeyError, TypeError):
            yield Finding(
                path=relpath, line=1, col=1, code="RPR005",
                message=(f"{GATE_BASELINE_REL} does not parse as a gate "
                         "baseline ({'counters': {...}}) — regenerate "
                         "with python -m repro.obs.gate --write-baseline"))
        else:
            gated = set(GATED_COUNTERS) | set(SERVE_GATED_COUNTERS)
            for flat_key in counters:
                name = flat_key.rpartition("/")[2]
                if name not in gated:
                    yield Finding(
                        path=relpath, line=1, col=1, code="RPR005",
                        message=(f"baseline key '{flat_key}' gates "
                                 f"unknown counter '{name}' — not in "
                                 "repro.obs.gate.GATED_COUNTERS or "
                                 "SERVE_GATED_COUNTERS"))


STORE_REL = "src/repro/store/__init__.py"


def _cli_store_choices() -> tuple[str, ...] | None:
    """The ``--store`` choices the CLI actually offers, or None."""
    from repro.cli import _build_parser

    parser = _build_parser()
    for action in parser._actions:  # noqa: SLF001 — argparse introspection
        if not hasattr(action, "choices") or not isinstance(
                action.choices, dict):
            continue
        solve = action.choices.get("solve")
        if solve is None:
            continue
        for sub_action in solve._actions:
            if "--store" in getattr(sub_action, "option_strings", ()):
                choices = sub_action.choices
                return tuple(choices) if choices is not None else None
    return None


def check_store_drift(repo_root: Path, *,
                      api_doc: Path | None = None,
                      tests_dir: Path | None = None) -> Iterator[Finding]:
    """RPR005 for the store layer: backends ↔ docs ↔ CLI ↔ tests.

    The same name-level triangle the solver registry gets: every backend
    in ``repro.store.STORE_NAMES`` must be documented in ``docs/api.md``,
    offered by the CLI ``--store`` choices, and named somewhere under
    ``tests/store/`` — a backend nobody exercises has an unproven
    lifecycle, which for memmap means a potential file leak.
    """
    store_path = repo_root / STORE_REL
    if not store_path.is_file():
        return  # not this repository's layout — rule does not apply
    api_doc = api_doc or repo_root / "docs" / "api.md"
    tests_dir = tests_dir or repo_root / "tests" / "store"
    relpath = STORE_REL
    store_source = store_path.read_text(encoding="utf-8")

    from repro.store import STORE_NAMES

    doc_text = (api_doc.read_text(encoding="utf-8")
                if api_doc.is_file() else "")
    test_text = ""
    if tests_dir.is_dir():
        test_text = "\n".join(
            test_file.read_text(encoding="utf-8", errors="replace")
            for test_file in sorted(tests_dir.rglob("*.py"))
            if "fixtures" not in test_file.parts)

    cli_choices = _cli_store_choices()

    for name in STORE_NAMES:
        line = _key_line(store_source, name)
        if name not in doc_text:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"store backend '{name}' is registered but "
                         "absent from docs/api.md — document it "
                         "(lifecycle, process model, when to pick it)"))
        if cli_choices is not None and name not in cli_choices:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"store backend '{name}' is registered but "
                         "missing from the CLI --store choices"))
        if f'"{name}"' not in test_text:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"store backend '{name}' is never named in "
                         "tests/store/ — its handle lifecycle is "
                         "unexercised"))

    if cli_choices is None:
        yield Finding(
            path=relpath, line=1, col=1, code="RPR005",
            message=("could not introspect the CLI --store choices "
                     "(argparse layout changed?) — RPR005 cannot verify "
                     "the store CLI surface"))


SERVE_PROTOCOL_REL = "src/repro/serve/protocol.py"
SERVE_WORKLOAD_REL = "src/repro/serve/workload.py"


def _cli_query_kind_choices() -> tuple[str, ...] | None:
    """The ``query --kind`` choices the CLI actually offers, or None."""
    from repro.cli import _build_parser

    parser = _build_parser()
    for action in parser._actions:  # noqa: SLF001 — argparse introspection
        if not hasattr(action, "choices") or not isinstance(
                action.choices, dict):
            continue
        query = action.choices.get("query")
        if query is None:
            continue
        for sub_action in query._actions:
            if "--kind" in getattr(sub_action, "option_strings", ()):
                choices = sub_action.choices
                return tuple(choices) if choices is not None else None
    return None


def check_serve_drift(repo_root: Path, *,
                      api_doc: Path | None = None,
                      tests_dir: Path | None = None,
                      workload_path: Path | None = None
                      ) -> Iterator[Finding]:
    """RPR005 for the serve layer: kinds ↔ docs ↔ CLI ↔ tests ↔ workload.

    ``repro.serve.protocol.REQUEST_KINDS`` is the service's registry;
    every kind must be documented in ``docs/api.md`` (the request-kind
    table), offered by the CLI ``query --kind`` choices, named
    somewhere under ``tests/serve/`` — a request kind nobody exercises
    means an untested wire codec and an untested executor branch — and
    built by the scripted workload (its request class must appear in
    ``src/repro/serve/workload.py``), so the serve smoke and the
    counter gate replay every kind end to end.
    """
    protocol_path = repo_root / SERVE_PROTOCOL_REL
    if not protocol_path.is_file():
        return  # not this repository's layout — rule does not apply
    api_doc = api_doc or repo_root / "docs" / "api.md"
    tests_dir = tests_dir or repo_root / "tests" / "serve"
    relpath = SERVE_PROTOCOL_REL
    protocol_source = protocol_path.read_text(encoding="utf-8")

    from repro.serve.protocol import _REQUEST_TYPES, REQUEST_KINDS

    doc_text = (api_doc.read_text(encoding="utf-8")
                if api_doc.is_file() else "")
    workload_path = workload_path or repo_root / SERVE_WORKLOAD_REL
    workload_text = (workload_path.read_text(encoding="utf-8")
                     if workload_path.is_file() else "")
    test_text = ""
    if tests_dir.is_dir():
        test_text = "\n".join(
            test_file.read_text(encoding="utf-8", errors="replace")
            for test_file in sorted(tests_dir.rglob("*.py"))
            if "fixtures" not in test_file.parts)

    cli_choices = _cli_query_kind_choices()

    for kind in REQUEST_KINDS:
        line = _key_line(protocol_source, kind)
        if kind not in doc_text:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"serve request kind '{kind}' is registered "
                         "but absent from docs/api.md — add it to the "
                         "request-kind table"))
        if cli_choices is not None and kind not in cli_choices:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"serve request kind '{kind}' is registered "
                         "but missing from the CLI query --kind "
                         "choices"))
        if f'"{kind}"' not in test_text:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"serve request kind '{kind}' is never named "
                         "in tests/serve/ — its codec and executor "
                         "branch are unexercised"))
        request_cls = _REQUEST_TYPES[kind].__name__
        if request_cls not in workload_text:
            yield Finding(
                path=relpath, line=line, col=1, code="RPR005",
                message=(f"serve request kind '{kind}' "
                         f"({request_cls}) is missing from the "
                         f"scripted workload ({SERVE_WORKLOAD_REL}) — "
                         "the serve smoke and the counter gate never "
                         "replay it"))

    if cli_choices is None:
        yield Finding(
            path=relpath, line=1, col=1, code="RPR005",
            message=("could not introspect the CLI query --kind choices "
                     "(argparse layout changed?) — RPR005 cannot verify "
                     "the serve CLI surface"))
