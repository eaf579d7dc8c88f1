"""Teeth tests: mutate the *real* sources and prove the gate bites.

A linter that passes a clean tree proves little until deleting the
protocol it guards makes it fail.  These tests AST-transform the
shipping modules -- drop the hand-off of the serving scheduler's
in-flight slot claims, strip the release-bearing try/finally from
claim holders, strip the trace-level guards from the recorders -- and
assert the mutants are flagged while the pristine sources stay clean.  Because the mutation is structural (applied to
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


class StripClaimHandoff(ast.NodeTransformer):
    """Drop every hand-off of a claim -- the claim passed on to the
    process that releases it, or parked where that process reads it --
    the regression of a dispatcher that takes a slot and forgets to
    pass it on."""

    def visit_Module(self, node: ast.Module):
        self.claims = {
            target.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Assign)
            and isinstance(sub.value, ast.Call)
            and isinstance(sub.value.func, ast.Attribute)
            and sub.value.func.attr == "request"
            for target in sub.targets
            if isinstance(target, ast.Name)
        }
        return self.generic_visit(node)

    def _is_claim(self, node) -> bool:
        return isinstance(node, ast.Name) and node.id in self.claims

    def visit_Assign(self, node: ast.Assign):
        if self._is_claim(node.value) and any(
            isinstance(target, (ast.Subscript, ast.Attribute)) for target in node.targets
        ):
            return None
        return self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "release"):
            node.args = [
                ast.Constant(None) if self._is_claim(arg) else arg for arg in node.args
            ]
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


def test_dropping_slot_handoff_in_sharded_trips_r3():
    # Station and channel holds are calendar reservations and claim
    # nothing; the claims left on the serving path are the in-flight
    # slots of ``PriorityResource``, handed from the dispatcher (and
    # the preemption checkpoint) to the process that releases them.
    path = SRC / "serving" / "sharded.py"
    pristine = path.read_text(encoding="utf-8")
    assert _rule_hits(pristine, "repro.serving.sharded", "R3") == []

    mutant = _mutate(path, StripClaimHandoff())
    hits = _rule_hits(mutant, "repro.serving.sharded", "R3")
    # Both slot claims -- the dispatcher's and the checkpoint's
    # re-request -- lose their hand-off.
    assert {hit.message.split("'")[1] for hit in hits} == {"slot", "resumed"}, "\n".join(
        f.format() for f in hits
    )


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
