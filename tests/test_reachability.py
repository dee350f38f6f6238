"""Each def, class, defaulted parameter and record field under ``src/``
is reached from the program, or is listed with its reason in
``tests/reachability_golden.txt``; so is each unread import.

A def, a class, or a module-level assignment, is used when its name
appears in ``src/``, ``benchmarks/`` or ``examples/`` outside its own
body and every unused def's body, to a fixpoint.  A re-export is not a
use: neither the alias of a relative import in an ``__init__.py`` nor a
string in an ``__all__``.  A string annotation is read for the names in
it.  Dunders and decorator-registered defs count as used.

A defaulted parameter is set when a call in the program passes it to a
callee of the same name, by keyword, by position or through ``*`` /
``**``; ``ClassName(...)``, ``cls(...)`` and ``super().__init__(...)``
reach ``__init__``.  A def used as a value, not called, has every
parameter set, and so has the ``__init__`` of a class passed, assigned
or returned as a value.  Parameters of listed defs are not scanned, nor
fields of listed classes.  A dataclass or NamedTuple field is read when its name is
loaded, as a name, an attribute or an identifier string; a class that
hands ``self`` to ``asdict`` reads every field.  Tests set and read
nothing here: a knob only a test turns is one value in use.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PLAIN_DECORATORS = {"property", "classmethod", "staticmethod", "setter", "dataclass"}
VALUE_PARENTS = (
    ast.keyword, ast.Assign, ast.Return, ast.Call, ast.Dict, ast.List,
    ast.Tuple, ast.BoolOp, ast.IfExp,
)


def parsed(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text("utf-8"))


@functools.cache
def program():
    return tuple(pt for d in ("src", "benchmarks", "examples") for pt in parsed(d))


def named(node):
    node = getattr(node, "func", node)
    return getattr(node, "attr", getattr(node, "id", ""))


def scoped(tree, klass=None):
    """``(node, parent, enclosing class)`` for every node under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        yield child, tree, klass
        yield from scoped(child, child if isinstance(child, ast.ClassDef) else klass)


def re_exports(path, tree):
    """The nodes whose names only pass a def on: ``__all__`` and, in an
    ``__init__.py``, relative imports."""
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            yield from ast.walk(node)
        elif path.endswith("/__init__.py") and getattr(node, "level", 0):
            yield from ast.walk(node)


def annotations(tree):
    """The expressions a string annotation such as ``"AfterEach | None"``
    holds, parsed, with the line of the string."""
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for text in ast.walk(note) if note else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    try:  # a Literal["..."] member need not be an expression
                        parsed = ast.parse(text.value, mode="eval")
                    except SyntaxError:
                        continue
                    yield from (ast.copy_location(n, text) for n in ast.walk(parsed))


def mentions(path, tree):
    skipped = {id(node) for node in re_exports(path, tree)}
    for node in [*ast.walk(tree), *annotations(tree)]:
        if id(node) in skipped:
            continue
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
    """``(path, qualname, name, first line, last line)`` per def and
    class, and per name a module-level assignment binds."""
    for node in scope.body:
        if not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in getattr(node, "targets", None) or [node.target]:
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield path, name.id, name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            yield path, prefix + node.name, node.name, node.lineno, node.end_lineno
            yield from candidates(path, node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and {named(d) for d in node.decorator_list} <= PLAIN_DECORATORS:
                yield path, prefix + node.name, node.name, node.lineno, node.end_lineno


@functools.cache
def unreached_defs():
    uses = {}
    for path, tree in program():
        for name, line in mentions(path, tree):
            uses.setdefault(name, []).append((path, line))
    defs = [d for p, t in program() if p.startswith("src/") for d in candidates(p, t)]
    dead, new = set(), True
    while new:  # a use inside the def itself or a dead def does not count
        spans = [(d[0], *d[3:]) for d in dead]
        new = {d for d in defs if d not in dead and all(
            any(p == path and a <= line <= b for p, a, b in [(d[0], *d[3:])] + spans)
            for path, line in uses.get(d[2], ()))}
        dead |= new
    return frozenset(f"{path}::{qualname}" for path, qualname, *_ in dead)


def src_scopes():
    """``(key, node, enclosing class)`` per def and class under ``src/``."""
    for path, tree in program():
        if path.startswith("src/"):
            stack = [(tree, "", None)]
            while stack:
                scope, prefix, klass = stack.pop()
                for node in scope.body:
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                        yield f"{path}::{prefix}{node.name}", node, klass
                    if isinstance(node, ast.ClassDef):
                        stack.append((node, f"{prefix}{node.name}.", node))


def defaulted(fn):
    """``(position or None, name)`` per parameter that has a default."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from ((None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)


def unset_parameters():
    defs, classes = {}, {}
    for key, node, klass in src_scopes():
        if isinstance(node, ast.ClassDef):
            classes.setdefault(node.name, []).append(node)
        else:
            static = "staticmethod" in map(named, node.decorator_list)
            bound = klass is not None and not static
            defs.setdefault(node.name, []).append((key, node, bound, klass))

    def inits(class_name):  # the __init__ that ``class_name(...)`` runs
        found = []
        for cls in classes.get(class_name, ()):
            own = [d for d in defs.get("__init__", ()) if d[3] is cls]
            found += own or [i for base in cls.bases for i in inits(named(base))]
        return found

    reached = set()
    for path, tree in program():
        for node, parent, klass in scoped(tree):
            if isinstance(node, ast.Call):
                callee, owner = named(node), named(getattr(node.func, "value", None))
                if callee == "__init__" and owner == "super":
                    targets = [i for base in klass.bases for i in inits(named(base))]
                else:
                    callee = klass.name if callee == "cls" and klass else callee
                    targets = defs.get(callee, []) + inits(callee)
                given = {k.arg for k in node.keywords}
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                for key, fn, bound, _ in targets:
                    reached.update((key, name) for i, name in defaulted(fn) if (
                        None in given or name in given or i is not None
                        and (starred or i - bound < len(node.args))))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                called = isinstance(parent, ast.Call) and parent.func is node
                if called or not isinstance(node.ctx, ast.Load):
                    continue
                name, owner = named(node), named(getattr(node, "value", None))
                if name == "__init__" and owner in classes:
                    targets = inits(owner)
                else:
                    targets = defs.get(name, [])
                    if isinstance(parent, VALUE_PARENTS) and named(parent) not in (
                            "isinstance", "issubclass"):
                        targets = targets + inits(name)
                reached.update((t[0], n) for t in targets for _, n in defaulted(t[1]))
    skipped = unreached_defs() | set(golden())
    return {
        f"{key}({name})" for entries in defs.values() for key, fn, *_ in entries
        if key not in skipped for _, name in defaulted(fn) if (key, name) not in reached
    }


def unread_fields():
    loaded, whole = set(), set()
    for path, tree in program():
        for node, parent, klass in scoped(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                loaded.add(named(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
            elif isinstance(node, ast.Call) and named(node) == "asdict" and klass:
                if any(getattr(a, "id", None) == "self" for a in node.args):
                    whole.add(klass)
    unread, skipped = set(), unreached_defs() | set(golden())
    for key, node, _ in src_scopes():
        bases = {named(b) for b in getattr(node, "bases", ())}
        decorators = {named(d) for d in getattr(node, "decorator_list", ())}
        if node in whole or key in skipped or not (
                "NamedTuple" in bases or "dataclass" in decorators):
            continue
        for field in node.body:
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                if "ClassVar" not in ast.unparse(field.annotation):
                    if field.target.id not in loaded:
                        unread.add(f"{key}.{field.target.id}")
    return unread


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
    found = unreached_defs().union(unset_parameters(), unread_fields(), *(
        unread_imports(path, tree)
        for path, tree in program()
        if path.startswith("src/") and not path.endswith("/__init__.py")
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
