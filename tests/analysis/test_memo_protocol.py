"""One memo protocol: planning and simulation memoise through
``core/memo.py`` only, and planning reads the DSE hatch where it
branches.

Every memo that keeps more than its last value is a bounded ``Memo``
(an LRU over an ``OrderedDict``); the LRU moves -- ``move_to_end`` and
``popitem`` -- live in that one module, and so do identity keys
(``Ref``).  The DSE hatch is read by
the function that branches on it, never threaded through planning
signatures as a ``fast`` flag.  These structural checks fail as soon as
a hand-rolled LRU or FIFO, an ``id()``-keyed lookup or a threaded hatch
parameter reappears.
"""

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

LRU_METHODS = ("move_to_end", "popitem")

#: Packages whose memos must all go through ``core/memo.py``.
MEMO_PACKAGES = ("core", "sim", "serving")

#: Dict methods whose first argument is a key.
KEYED_METHODS = ("get", "pop", "setdefault")

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


def _is_call_to(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope: ast.AST):
    """The nodes of one scope, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _hand_rolled_memo_sites(path: Path):
    """``[(line, what)]`` for FIFO evictions by ``.pop(next(iter(...)))``
    and for dict lookups keyed by ``id(...)`` -- directly, or through a
    name the same scope assigns from an expression that calls ``id``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, SCOPES)]:
        nodes = list(_scope_nodes(scope))
        id_names = {
            target.id
            for node in nodes
            if isinstance(node, ast.Assign)
            and any(_is_call_to(sub, "id") for sub in ast.walk(node.value))
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def id_keyed(key: ast.AST) -> bool:
            return any(
                _is_call_to(sub, "id")
                or (isinstance(sub, ast.Name) and sub.id in id_names)
                for sub in ast.walk(key)
            )

        for node in nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                first = node.args[0] if node.args else None
                if (
                    node.func.attr == "pop"
                    and _is_call_to(first, "next")
                    and first.args
                    and _is_call_to(first.args[0], "iter")
                ):
                    sites.append((node.lineno, "fifo eviction"))
                elif node.func.attr in KEYED_METHODS and first is not None and id_keyed(first):
                    sites.append((node.lineno, f"id-keyed .{node.func.attr}"))
            elif isinstance(node, ast.Subscript) and id_keyed(node.slice):
                sites.append((node.lineno, "id-keyed subscript"))
            elif isinstance(node, ast.Compare) and id_keyed(node.left):
                if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                    sites.append((node.lineno, "id-keyed membership"))
    return sorted(sites)


def test_no_hand_rolled_memos_outside_the_memo_module():
    memo = SRC / "core" / "memo.py"
    assert all((SRC / package).is_dir() for package in MEMO_PACKAGES)
    found = {
        str(path.relative_to(SRC)): sites
        for package in MEMO_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        if path != memo
        for sites in [_hand_rolled_memo_sites(path)]
        if sites
    }
    assert found == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("memo.pop(next(iter(memo)))", ["fifo eviction"]),
        ("hit = memo.get(id(task))", ["id-keyed .get"]),
        ("key = id(local)\nhit = memo.get(key)", ["id-keyed .get"]),
        ("key = (id(graph), hi)\nmemo[key] = plan", ["id-keyed subscript"]),
        ("found = id(task) in memo", ["id-keyed membership"]),
        ("hit = memo.get((Ref(local), device))", []),
        ("first = queue.pop(0)", []),
        ("def f():\n    key = id(x)\ndef g(key):\n    return memo.get(key)", []),
    ],
)
def test_hand_rolled_memo_check_has_teeth(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source + "\n", encoding="utf-8")
    assert [what for _, what in _hand_rolled_memo_sites(path)] == expected
