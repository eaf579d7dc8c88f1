"""Shared AST plumbing for the rules: names, scopes, block positions."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a call's target, else ``None``."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


def own_statements(func: FunctionNode) -> Iterator[ast.AST]:
    """All nodes of ``func``'s own body, not descending into nested
    function/class definitions."""

    def visit(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            yield child
            if not isinstance(child, (*FUNCTION_TYPES, ast.ClassDef, ast.Lambda)):
                yield from visit(child)

    yield from visit(func)


def contains_name(node: ast.AST, name: str) -> bool:
    """Whether ``node`` references the plain name ``name`` anywhere."""
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node)
    )


def self_attribute(node: ast.AST) -> Optional[str]:
    """``attr`` for a ``self.attr`` access, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def cleanup_nodes(func: FunctionNode) -> Set[int]:
    """Identities of every node under a ``finally`` block or ``except``
    handler inside ``func`` (nested functions included -- a closure may
    own the cleanup)."""
    protected: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Try, *(
            (ast.TryStar,) if hasattr(ast, "TryStar") else ()
        ))):
            regions: List[ast.AST] = list(node.finalbody) + list(node.handlers)
            for region in regions:
                for sub in ast.walk(region):
                    protected.add(id(sub))
    return protected


def block_sequences(node: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every statement list (block) in ``node``: module/function bodies,
    if/else arms, loop bodies, try regions, ..."""
    for sub in ast.walk(node):
        for fname in ("body", "orelse", "finalbody"):
            block = getattr(sub, fname, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        handlers = getattr(sub, "handlers", None)
        if handlers:
            for handler in handlers:
                if handler.body:
                    yield handler.body
