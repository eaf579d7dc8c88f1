"""Teeth tests: mutate the *real* sources and prove the gate bites.

A linter that passes a clean tree proves little until deleting the
protocol it guards makes it fail.  These tests AST-transform the
shipping modules -- strip the release-bearing try/finally from the
engine's claim holders, strip the trace-level guards from the
recorders -- and assert the mutants are flagged while the pristine
sources stay clean.  Because the mutation is structural (applied to
whatever the file currently contains), the test keeps biting as the
code evolves.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import analyze_source

pytestmark = pytest.mark.lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _mentions_release(stmts) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
            ):
                return True
    return False


class StripReleaseCleanup(ast.NodeTransformer):
    """Delete every try/except/finally whose cleanup releases a claim,
    splicing the protected body back in -- the classic regression of
    'simplifying' the hold protocol."""

    def visit_Try(self, node: ast.Try):
        self.generic_visit(node)
        handler_bodies = [stmt for handler in node.handlers for stmt in handler.body]
        if _mentions_release(node.finalbody) or _mentions_release(handler_bodies):
            return node.body + node.orelse
        return node


class StripTraceGuards(ast.NodeTransformer):
    """Delete ``self._require_full(...)`` statements and unwrap
    ``if not self._full: raise ...`` guards -- the regression of an
    accessor forgetting the trace level."""

    def visit_Expr(self, node: ast.Expr):
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and "require_full" in node.value.func.attr
        ):
            return None
        return node

    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        raises = any(isinstance(stmt, ast.Raise) for stmt in node.body)
        guards_full = any(
            isinstance(sub, ast.Attribute) and sub.attr == "_full"
            for sub in ast.walk(node.test)
        )
        if raises and guards_full:
            return node.orelse or None
        return node


def _mutate(path: Path, transformer: ast.NodeTransformer) -> str:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    mutated = transformer.visit(tree)
    for node in ast.walk(mutated):
        # A guard that WAS the whole body leaves it empty; keep the
        # mutant parseable.
        if getattr(node, "body", None) == []:
            node.body = [ast.Pass()]
    ast.fix_missing_locations(mutated)
    return ast.unparse(mutated)


def _rule_hits(source: str, module: str, rule: str):
    findings = analyze_source(source, module=module, path=f"<mutant:{module}>")
    return [f for f in findings if f.rule == rule and f.actionable]


def test_deleting_claim_cleanup_in_runtime_trips_r3():
    path = SRC / "sim" / "runtime.py"
    pristine = path.read_text(encoding="utf-8")
    assert _rule_hits(pristine, "repro.sim.runtime", "R3") == []

    mutant = _mutate(path, StripReleaseCleanup())
    assert "finally" not in mutant or ".release(" not in mutant.split("finally")[1][:200]
    hits = _rule_hits(mutant, "repro.sim.runtime", "R3")
    # The two claim sites -- ProcessorStation.hold and
    # NetworkChannel.transmit -- both lose their release paths.
    assert len(hits) >= 2, "\n".join(f.format() for f in hits)


def test_deleting_claim_cleanup_in_resources_trips_r3():
    # The same mutation over the engine's resource module (or any other
    # claim holder) must also bite, if it holds claims at all.
    path = SRC / "sim" / "engine.py"
    pristine = path.read_text(encoding="utf-8")
    assert _rule_hits(pristine, "repro.sim.engine", "R3") == []
    mutant = _mutate(path, StripReleaseCleanup())
    if ".request(" in pristine:
        assert _rule_hits(mutant, "repro.sim.engine", "R3")


def test_dropping_trace_guards_trips_r4():
    path = SRC / "sim" / "trace.py"
    pristine = path.read_text(encoding="utf-8")
    assert _rule_hits(pristine, "repro.sim.trace", "R4") == []

    mutant = _mutate(path, StripTraceGuards())
    assert "require_full()" not in mutant
    hits = _rule_hits(mutant, "repro.sim.trace", "R4")
    # Every per-entry accessor of every recorder loses its guard.
    assert len(hits) >= 3, "\n".join(f.format() for f in hits)


def test_dropping_fault_trace_guard_trips_r4():
    path = SRC / "faults.py"
    pristine = path.read_text(encoding="utf-8")
    assert _rule_hits(pristine, "repro.faults", "R4") == []
    mutant = _mutate(path, StripTraceGuards())
    if "_require_full" in pristine or "_full" in pristine:
        assert _rule_hits(mutant, "repro.faults", "R4")
