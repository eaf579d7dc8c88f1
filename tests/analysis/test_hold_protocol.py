"""One hold protocol: stations and channels own it, the executor calls it.

The station hold (commit backlog, request, busy-record, release,
un-commit on an abandoned claim) lives in ``ProcessorStation.hold`` and
the channel leg in ``NetworkChannel.transmit``.  These structural
checks fail as soon as a copy of either protocol, or a second
reference arm of an executor flow, reappears.
"""

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CLAIM_METHODS = ("request", "release")


def _claim_calls_by_function(path: Path):
    """``[(enclosing function name, method)]`` for every
    ``.request()``/``.release()`` call in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = []

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
            visit(child, function)

    visit(tree, None)
    return calls


def test_executor_claims_nothing_and_keeps_no_reference_arm():
    path = SRC / "core" / "executor.py"
    assert _claim_calls_by_function(path) == []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    references = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    ]
    assert references == []


def test_only_hold_and_transmit_claim_runtime_resources():
    calls = _claim_calls_by_function(SRC / "sim" / "runtime.py")
    assert {function for function, _ in calls} == {"hold", "transmit"}
