"""One memo protocol: planning memoises through ``core/memo.py`` only,
and reads the DSE hatch where it branches.

Every planning memo is a bounded ``Memo`` (an LRU over an
``OrderedDict``); the LRU moves -- ``move_to_end`` and ``popitem`` --
live in that one module.  The DSE hatch is read by the function that
branches on it, never threaded through planning signatures as a
``fast`` flag.  These structural checks fail as soon as a hand-rolled
LRU or a threaded hatch parameter reappears.
"""

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

LRU_METHODS = ("move_to_end", "popitem")

PLANNING_MODULES = ("core/dp.py", "core/dse.py", "core/local_partitioner.py", "dnn/partition.py")


def _lru_calls(path: Path):
    """``[(line, method)]`` for every ``.move_to_end()``/``.popitem()`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in LRU_METHODS
    ]


def test_only_the_memo_module_moves_lru_entries():
    memo = SRC / "core" / "memo.py"
    assert _lru_calls(memo)  # the one implementation
    found = {
        str(path.relative_to(SRC)): calls
        for package in ("core", "dnn")
        for path in sorted((SRC / package).rglob("*.py"))
        if path != memo
        for calls in [_lru_calls(path)]
        if calls
    }
    assert found == {}


def test_no_planning_function_takes_a_fast_flag():
    found = []
    for module in PLANNING_MODULES:
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [
                    arg.arg
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                ]
                if "fast" in names:
                    found.append(f"{module}:{node.lineno} {node.name}")
    assert found == []
