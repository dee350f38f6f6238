"""Each def under ``src/`` is reached from the program, or is listed with
its reason in ``tests/reachability_golden.txt``; so is each unread import.

A def is used when its name appears in ``src/``, ``benchmarks/`` or
``examples/`` outside its own body and every unused def's body, to a
fixpoint.  Dunders and decorator-registered defs count as used.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PLAIN_DECORATORS = {"property", "classmethod", "staticmethod", "setter"}


def parsed(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text("utf-8"))


def mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
            yield (node.asname or node.name).split(".")[-1], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            yield str(node.value), node.lineno
        elif isinstance(node, (ast.Name, ast.Attribute)):
            yield getattr(node, "id", getattr(node, "attr", None)), node.lineno


def candidates(path, scope, prefix=""):
    """``(path, qualname, name, first line, last line)`` per def."""
    for node in scope.body:
        if isinstance(node, ast.ClassDef):
            yield from candidates(path, node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = [getattr(d, "func", d) for d in node.decorator_list]
            names = {getattr(d, "attr", getattr(d, "id", "")) for d in decorators}
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and names <= PLAIN_DECORATORS:
                yield path, prefix + node.name, node.name, node.lineno, node.end_lineno


def unreached_defs():
    program = [pt for d in ("src", "benchmarks", "examples") for pt in parsed(d)]
    uses = {}
    for path, tree in program:
        for name, line in mentions(tree):
            uses.setdefault(name, []).append((path, line))
    defs = [d for p, t in program if p.startswith("src/") for d in candidates(p, t)]
    dead, new = set(), True
    while new:  # a use inside the def itself or a dead def does not count
        spans = [(d[0], *d[3:]) for d in dead]
        new = {d for d in defs if d not in dead and all(
            any(p == path and a <= line <= b for p, a, b in [(d[0], *d[3:])] + spans)
            for path, line in uses.get(d[2], ()))}
        dead |= new
    return {f"{path}::{qualname}" for path, qualname, *_ in dead}


def unread_imports(path, tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Iterator[Finding]"
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Name):
            read.add(node.id)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and getattr(node, "module", "") != "__future__":
                    yield f"{path}::import {bound}"


def golden():  # key | reason
    text = (ROOT / "tests" / "reachability_golden.txt").read_text("utf-8")
    return dict(line.split(" | ") for line in text.splitlines())


def test_the_golden_list_is_exact():
    found = unreached_defs().union(*(
        unread_imports(path, tree)
        for path, tree in parsed("src") if not path.endswith("/__init__.py")
    ))
    unlisted, listed = sorted(found - set(golden())), sorted(set(golden()) - found)
    assert unlisted == [], "reached only by tests: delete, or list with a reason"
    assert listed == [], "listed but reached by the program: drop the entry"


def test_every_entry_gives_its_reason():
    paper_map = (ROOT / "docs" / "PAPER_MAP.md").read_text("utf-8")
    for key, reason in golden().items():
        kind, _, where = reason.partition(": ")
        assert kind in ("probe", "paper API", "side effect"), key
        assert kind != "probe" or (ROOT / where.split()[0]).exists(), key
        assert kind != "paper API" or f"| {where} |" in paper_map, key
