"""The exactness rules: this codebase's correctness invariants as AST checks.

Every rule encodes an invariant that a shipped bug (see ``CHANGES.md``
and ``docs/development.md``) has already violated once.  Rules are
deliberately *module-local and syntactic*: they run on one parsed file
with no type inference, so they are fast, deterministic, and cheap to
reason about — the price is that each one is a heuristic for the
semantic invariant it guards, with a typed pragma
(:mod:`repro.analysis.pragmas`) as the audited escape hatch.

Per-rule scope (``applies_to``) is part of the rule, not the driver:
e.g. ``RPR002`` exempts test modules because bit-identity *assertions*
in tests are exact float equality on purpose.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.loader import ModuleContext

__all__ = ["Rule", "ALL_RULES", "rule_codes", "rules_for_module"]


class Rule:
    """Base per-module rule: subclass, set the metadata, implement check."""

    code: str = "RPR000"
    name: str = "base"
    #: The pragma tag that suppresses this rule at a site.
    pragma_tag: str = ""
    summary: str = ""

    def applies_to(self, module: ModuleContext) -> bool:
        return True

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=module.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       code=self.code, message=message)


def _call_name(node: ast.Call) -> str:
    """Dotted-ish name of a call target: ``np.hypot``, ``sqrt``, ..."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        parts = [func.attr]
        value = func.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
        return ".".join(reversed(parts))
    return ""


def _is_square(node: ast.expr) -> bool:
    """``x * x`` or ``x ** 2`` for a structurally identical ``x``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2):
        return True
    return False


def _is_sum_of_squares(node: ast.expr) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and _is_square(node.left) and _is_square(node.right))


class MixedDistanceIdioms(Rule):
    """RPR001 — ``hypot`` and ``sqrt(dx*dx + dy*dy)`` in one module.

    ``math.hypot`` is correctly rounded as a single operation;
    ``sqrt(dx*dx + dy*dy)`` rounds the multiplies and the add separately.
    The two disagree in the last ulp for some inputs — which is exactly
    how the PR-1 adjacency builders diverged and broke region
    bit-identity.  Either form is fine *alone*; a module mixing both is
    one refactor away from comparing distances produced by different
    rounding pipelines.
    """

    code = "RPR001"
    name = "mixed-distance-idioms"
    pragma_tag = "distance-form"
    summary = ("module mixes hypot and sqrt(dx*dx+dy*dy) distance forms "
               "(bit-identity hazard)")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        hypot_sites: list[ast.Call] = []
        sqrt_sites: list[ast.Call] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            base = name.rsplit(".", 1)[-1]
            if base == "hypot":
                hypot_sites.append(node)
            elif (base == "sqrt" and len(node.args) == 1
                    and _is_sum_of_squares(node.args[0])):
                sqrt_sites.append(node)
        if not hypot_sites or not sqrt_sites:
            return
        for site in sqrt_sites:
            if module.suppressed(site.lineno, self.pragma_tag):
                continue
            yield self.finding(
                module, site,
                "sqrt(dx*dx + dy*dy) here, but this module also computes "
                "distance with hypot: the two round differently in the "
                "last ulp (the PR-1 adjacency divergence). Use one form "
                "per module, or mark the audited site with "
                "`# repro: distance-form(<reason>)`")


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    # -0.0, +1.5 ... : unary op around a float literal
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.operand, ast.Constant)
            and type(node.operand.value) is float)


class FloatEquality(Rule):
    """RPR002 — ``==``/``!=`` against a float literal outside audited sites.

    Tolerance-based comparison must route through the named helpers in
    :mod:`repro.geometry.tolerance`; raw equality on computed floats is
    how ``sampled_best == 0.0`` quietly ignored accumulated rounding
    dust in ``core/verify.py``.  Test modules are exempt: bit-identity
    *assertions* (sharded vs single-process scores, compiled vs numpy
    kernels) are exact equality on purpose.
    """

    code = "RPR002"
    name = "float-equality"
    pragma_tag = "float-eq"
    summary = ("float ==/!= comparison outside the audited allowlist "
               "(route tolerance through repro.geometry.tolerance)")

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.is_test

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if not (_is_float_literal(left) or _is_float_literal(right)):
                    continue
                if module.suppressed(node.lineno, self.pragma_tag):
                    continue
                yield self.finding(
                    module, node,
                    "float equality comparison: use float_eq/near_zero "
                    "from repro.geometry.tolerance, or audit the site "
                    "with `# repro: float-eq(<reason>)`")
                break


_WARNLIKE_ATTRS = frozenset({
    "warn", "warning", "error", "exception", "critical", "info",
    "debug", "log",
})


class SwallowedExceptions(Rule):
    """RPR003 — bare/broad handlers that swallow silently.

    ``except Exception: pass``-style handlers hid compiled-kernel load
    failures behind a quiet multi-x slowdown (``index/_ckernel.py``).  A
    broad handler is acceptable only when it re-raises, logs/warns, or
    carries an explicit ``# repro: fallback(<reason>)`` pragma.
    """

    code = "RPR003"
    name = "swallowed-exceptions"
    pragma_tag = "fallback"
    summary = ("bare/broad except swallows without re-raise, logging, "
               "or a fallback pragma")

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        def broad(expr: ast.expr) -> bool:
            return (isinstance(expr, ast.Name)
                    and expr.id in ("Exception", "BaseException"))

        if handler.type is None:
            return True
        if broad(handler.type):
            return True
        return (isinstance(handler.type, ast.Tuple)
                and any(broad(el) for el in handler.type.elts))

    @staticmethod
    def _handles_visibly(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name.rsplit(".", 1)[-1] in _WARNLIKE_ATTRS:
                    return True
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._handles_visibly(node):
                continue
            # The pragma may sit on the except line, just above it, or on
            # the first line of the handler body.
            body_line = node.body[0].lineno if node.body else node.lineno
            if (module.suppressed(node.lineno, self.pragma_tag)
                    or module.suppressed(body_line, self.pragma_tag)):
                continue
            yield self.finding(
                module, node,
                "broad except handler swallows silently: catch the "
                "specific errors, re-raise, warn naming the fallback, or "
                "mark with `# repro: fallback(<reason>)`")


_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray"})


class MutableDefaults(Rule):
    """RPR004 — mutable default argument values.

    A ``def f(x, cache={})`` default is one shared object across every
    call — state leaks between solves, the classic Python footgun.  Use
    ``None`` plus an in-body default.
    """

    code = "RPR004"
    name = "mutable-defaults"
    pragma_tag = "mutable-default"
    summary = "mutable default argument (shared across calls)"

    @staticmethod
    def _is_mutable(expr: ast.expr | None) -> bool:
        if expr is None:
            return False
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in _MUTABLE_CTORS)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            if not any(self._is_mutable(d) for d in defaults):
                continue
            if module.suppressed(node.lineno, self.pragma_tag):
                continue
            label = getattr(node, "name", "<lambda>")
            yield self.finding(
                module, node,
                f"mutable default argument in {label!r}: the default is "
                "one object shared by every call; use None and assign "
                "in the body")


_LOADER_CALLS = frozenset({
    "ctypes.CDLL", "ctypes.cdll.LoadLibrary", "ctypes.WinDLL",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    # The _ckernel entry-point loaders: calling one of these triggers a
    # compile+dlopen on first use, so the calling module must document
    # the gate just like a direct ctypes load would.
    "load_quad_kernel", "load_knn_kernel", "load_halo_kernel",
})


class UnguardedKernelLoad(Rule):
    """RPR006 — ctypes/subprocess use without the ``REPRO_NO_CKERNEL`` gate.

    Every native-code escape (compiling or loading the quad, kNN or
    halo kernel, whether via raw ctypes/subprocess or through the
    ``load_quad_kernel`` / ``load_knn_kernel`` / ``load_halo_kernel``
    entry points) must be skippable via ``REPRO_NO_CKERNEL=1`` so the
    pure-numpy path stays fully testable; a load site in a module that
    never consults the gate cannot be turned off.  Test modules are exempt (they drive the CLI
    via subprocess).
    """

    code = "RPR006"
    name = "unguarded-kernel-load"
    pragma_tag = "unguarded-load"
    summary = ("ctypes/subprocess load not guarded by the "
               "REPRO_NO_CKERNEL gate")

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.is_test

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        gated = any("REPRO_NO_CKERNEL" in line for line in module.lines)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in _LOADER_CALLS:
                continue
            if gated:
                continue
            if module.suppressed(node.lineno, self.pragma_tag):
                continue
            yield self.finding(
                module, node,
                f"{_call_name(node)} in a module that never consults "
                "REPRO_NO_CKERNEL: native loads must be gated so the "
                "numpy path stays reachable, or mark with "
                "`# repro: unguarded-load(<reason>)`")


_DTYPE_CTORS = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "arange", "linspace", "fromiter",
})


class ImplicitArrayDtype(Rule):
    """RPR007 — numpy construction without ``dtype=`` in index/engine/store.

    The sharded engine's bit-identity contract assumes float64
    everywhere; a constructor left to infer its dtype can silently pick
    int64 (``arange``) or whatever the inputs coerce to, and a float32
    or integer array crossing a shard boundary breaks score identity.
    Scoped to ``repro/index``, ``repro/engine`` and ``repro/store`` —
    the packages under that contract (a store buffer's layout is
    8-byte-element by definition; an inferred dtype there corrupts every
    consumer's views at once).
    """

    code = "RPR007"
    name = "implicit-array-dtype"
    pragma_tag = "dtype"
    summary = ("numpy array construction without explicit dtype= in "
               "repro.index / repro.engine / repro.store")

    def applies_to(self, module: ModuleContext) -> bool:
        rel = module.relpath
        return ("repro/index" in rel or "repro/engine" in rel
                or "repro/store" in rel)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            prefix, _, base = name.rpartition(".")
            if prefix not in ("np", "numpy") or base not in _DTYPE_CTORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            if module.suppressed(node.lineno, self.pragma_tag):
                continue
            yield self.finding(
                module, node,
                f"np.{base} without explicit dtype=: inferred dtypes "
                "break the float64 bit-identity contract across shards; "
                "pass dtype= or mark with `# repro: dtype(<reason>)`")


#: Registration order is report order for same-line findings.
ALL_RULES: tuple[Rule, ...] = (
    MixedDistanceIdioms(),
    FloatEquality(),
    SwallowedExceptions(),
    MutableDefaults(),
    UnguardedKernelLoad(),
    ImplicitArrayDtype(),
)


def rule_codes() -> tuple[str, ...]:
    """All per-module rule codes, sorted (RPR0xx and RPR1xx families)."""
    return tuple(sorted(rule.code for rule in all_rules()))


def all_rules() -> tuple[Rule, ...]:
    """The combined registry: module-local RPR0xx + context RPR1xx.

    Imported lazily — :mod:`repro.analysis.concurrency_rules` imports
    this module for the :class:`Rule` base, so a top-level import here
    would be circular.
    """
    from repro.analysis.concurrency_rules import CONTEXT_RULES
    return ALL_RULES + CONTEXT_RULES


def rules_for_module(module: ModuleContext,
                     select: Iterable[str] | None = None,
                     ignore: Iterable[str] | None = None,
                     rules: Iterable[Rule] | None = None) -> list[Rule]:
    """The rules that apply to ``module`` after select/ignore filtering.

    ``rules`` overrides the registry being filtered (the driver passes
    the combined RPR0xx+RPR1xx set; default stays the module-local
    rules for backwards compatibility).
    """
    selected = set(select) if select else None
    ignored = set(ignore or ())
    pool = tuple(rules) if rules is not None else ALL_RULES
    return [rule for rule in pool
            if (selected is None or rule.code in selected)
            and rule.code not in ignored
            and rule.applies_to(module)]
