"""One hold protocol: stations and channels own it, the executor calls it.

A station or channel hold is a calendar reservation: ``reserve`` books
``max(committed_until, now)`` onward, the caller wakes once at the end,
and the finished interval is recorded then.  The protocol lives in
``ProcessorStation`` and ``NetworkChannel`` (``sim/runtime.py``).
These structural checks fail as soon as a resource claim reappears in
the runtime or the executor, the calendar is written outside the
reservation path, or a second reference arm of an executor flow
appears.
"""

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CLAIM_METHODS = ("request", "release")

#: The functions allowed to write a calendar: the constructor, the
#: booking, the roll-back of an abandoned booking and the channel's
#: re-plan under link degradation.
RESERVATION_PATH = {"__init__", "reserve", "unreserve", "_replan"}


def _calls_and_writes(path: Path):
    """``(claims, writers)``: ``[(enclosing function, method)]`` for
    every ``.request()``/``.release()`` call, and the set of enclosing
    functions that assign to a ``.committed_until`` attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls, writers = [], set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in CLAIM_METHODS
            ):
                calls.append((function, child.func.attr))
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "committed_until"
                and isinstance(child.ctx, ast.Store)
            ):
                writers.add(function)
            visit(child, function)

    visit(tree, None)
    return calls, writers


def test_executor_claims_nothing_and_keeps_no_reference_arm():
    path = SRC / "core" / "executor.py"
    calls, writers = _calls_and_writes(path)
    assert calls == []
    assert writers == set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    references = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    ]
    assert references == []


def test_runtime_claims_nothing_and_only_reservations_commit():
    path = SRC / "sim" / "runtime.py"
    calls, writers = _calls_and_writes(path)
    assert calls == []
    assert "reserve" in writers
    assert writers <= RESERVATION_PATH, writers - RESERVATION_PATH
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"Resource", "PriorityResource"}
