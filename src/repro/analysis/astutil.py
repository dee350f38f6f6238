"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast

__all__ = ["dotted_name", "build_parent_map", "assigned_names", "decorator_name"]


def dotted_name(node: ast.expr) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def decorator_name(node: ast.expr) -> "str | None":
    """The dotted name of a decorator, unwrapping a call if present."""
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_name(node)


def build_parent_map(tree: ast.AST) -> "dict[ast.AST, ast.AST]":
    """Child → parent links for the whole tree."""
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def assigned_names(node: ast.AST) -> "set[str]":
    """Every plain name bound by assignments/for/with inside ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(sub.name)
    return names


def loop_target_names(target: ast.expr) -> "set[str]":
    """Names bound by a ``for`` target (handles tuple unpacking)."""
    names: set[str] = set()
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
    return names
