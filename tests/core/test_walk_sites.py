"""Step 5 is implemented once (``repro.core.negotiation.Walk``).

Everything that reserves for a negotiation — ``negotiate`` / ``complete``,
the concurrent service, adaptation, the baseline negotiators and an
advance claim — drives that one walk.  A fifth site would have to call
the committer's walk primitives or build a ``Commitment`` itself, so
this test fails where one appears.  (``tests/oracle.py``'s memo-less
reference walk is a test oracle and lives outside ``src``.)
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
WALK_MODULES = {"core/commitment.py", "core/negotiation.py"}
WALK_PRIMITIVES = {"try_commit", "iter_commit", "end_walk", "Commitment"}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None
    )


def test_walk_primitives_are_called_only_by_the_walk():
    strays = [
        f"{module}:{node.lineno} {called_name(node)}"
        for module, tree in modules()
        if module not in WALK_MODULES
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) in WALK_PRIMITIVES
    ]
    assert strays == []


def test_breaker_skips_are_counted_in_one_place():
    writes = [
        f"{module}:{node.lineno}"
        for module, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if isinstance(target, ast.Attribute)
        and target.attr == "breaker_skips"
        and isinstance(target.value, ast.Attribute)
        and target.value.attr == "stats"
    ]
    assert len(writes) == 1 and writes[0].startswith("core/negotiation.py:")
