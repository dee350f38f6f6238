"""Per-file analysis context shared by every rule.

Parses the file once, resolves its dotted module name (so rules can
scope themselves to ``repro.core`` etc.), maps every imported name to
the absolute dotted name it binds (so ``import time as clock`` makes
``clock.sleep`` read as ``time.sleep`` to every rule and to the call
graph), and extracts the inline ``# reprolint:`` pragmas:

* ``# reprolint: disable=REP001[,REP003]`` — suppress those rules on
  that line;
* ``# reprolint: backstop -- <reason>`` — sanction a broad exception
  handler (REP003) with a mandatory justification.

A pragma covers the whole *logical* statement it sits on, not just its
physical line: a ``disable`` on any line of a multi-line call suppresses
findings reported anywhere inside that statement, and a pragma on a
decorator line (or the ``def`` line of a decorated function) covers the
whole decorator-plus-signature header.  Bodies are never covered — a
pragma inside a function suppresses only its own statement.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..util.errors import ValidationError

__all__ = [
    "ModuleContext",
    "Scope",
    "parse_pragmas",
    "pragma_extents",
    "scope_extents",
]

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|backstop)"
    r"(?:\s*=\s*(?P<rules>[A-Z0-9,\s]+?))?"
    r"(?:\s*--\s*(?P<reason>.*))?\s*$"
)


def parse_pragmas(lines: "list[str]") -> "dict[int, dict[str, object]]":
    """Map 1-based line numbers to their pragma, if any."""
    pragmas: dict[int, dict[str, object]] = {}
    for number, text in enumerate(lines, start=1):
        if "reprolint:" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        pragmas[number] = {
            "kind": match.group("kind"),
            "rules": frozenset(
                rule.strip() for rule in rules.split(",") if rule.strip()
            )
            if rules
            else frozenset(),
            "reason": (match.group("reason") or "").strip(),
        }
    return pragmas


def pragma_extents(tree: ast.Module) -> "list[tuple[int, int]]":
    """Line ranges over which one inline pragma covers its neighbours.

    Two kinds of range:

    * every *simple* statement spanning several physical lines covers
      ``lineno..end_lineno`` (a pragma on the opening line of a
      multi-line call suppresses a finding reported on an inner line,
      and vice versa);
    * every function/class *header* covers first-decorator..last
      signature line (a pragma on the decorator suppresses a finding at
      the ``def``, and vice versa), stopping before the first body
      statement so a header pragma never silences the body.
    """
    extents: "list[tuple[int, int]]" = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min(
                [node.lineno] + [dec.lineno for dec in node.decorator_list]
            )
            end = node.body[0].lineno - 1 if node.body else node.lineno
            if end > start:
                extents.append((start, end))
        elif isinstance(node, ast.stmt):
            end_lineno = getattr(node, "end_lineno", None) or node.lineno
            if end_lineno > node.lineno and not _is_compound(node):
                extents.append((node.lineno, end_lineno))
    return sorted(set(extents))


def _is_compound(node: ast.stmt) -> bool:
    return isinstance(
        node,
        (
            ast.If,
            ast.For,
            ast.AsyncFor,
            ast.While,
            ast.With,
            ast.AsyncWith,
            ast.Try,
            ast.FunctionDef,
            ast.AsyncFunctionDef,
            ast.ClassDef,
        ),
    )


@dataclass(frozen=True, slots=True)
class Scope:
    """One def or class: its lines, qualified name and node."""

    start: int  # first decorator line, else the def/class line
    end: int
    qualname: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef"
    cls: "str | None"  # the class whose body it sits in, if any


def scope_extents(tree: ast.Module) -> "list[Scope]":
    """Every def/class in the module, outer before inner.

    Finding fingerprints use the extents: the enclosing scope's
    qualified name anchors a finding to its *code context*, so
    identical source lines in two different functions fingerprint
    differently while edits elsewhere in the file keep the fingerprint
    stable.  The whole-program extraction reads the defs.
    """
    scopes: "list[Scope]" = []

    def visit(node: ast.AST, prefix: str, cls: "str | None") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                start = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                end = getattr(child, "end_lineno", None) or child.lineno
                scopes.append(Scope(start, end, qualname, child, cls))
                inner = child.name if isinstance(child, ast.ClassDef) else None
                visit(child, qualname, inner)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return scopes


def _module_name(path: Path) -> str:
    """Dotted module name, resolved from the path's package layout.

    Walks up through directories that contain ``__init__.py`` so
    ``src/repro/core/offers.py`` becomes ``repro.core.offers``.  Files
    outside any package keep their stem (fixtures, scripts).
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _import_map(tree: ast.Module, module: str, path: str) -> "dict[str, str]":
    """Local name -> absolute dotted name, for every import in the file.

    ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c`` to
    ``a.b``; ``from a import b as c`` binds ``c`` to ``a.b``.  Relative
    imports resolve against the file's own package (``module`` itself
    for an ``__init__.py``).  Star imports bind nothing.
    """
    is_init = path.replace("\\", "/").endswith("__init__.py")
    package = module if is_init else module.rpartition(".")[0]
    imports: "dict[str, str]" = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor_parts = package.split(".") if package else []
                drop = node.level - 1
                if drop:
                    anchor_parts = (
                        anchor_parts[:-drop] if drop <= len(anchor_parts) else []
                    )
                anchor = ".".join(anchor_parts)
                base = f"{anchor}.{base}" if base and anchor else (anchor or base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return imports


@dataclass(slots=True)
class ModuleContext:
    """Everything a rule needs to inspect one file."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: "list[str]" = field(default_factory=list)
    pragmas: "dict[int, dict[str, object]]" = field(default_factory=dict)
    _extents: "list[tuple[int, int]] | None" = field(default=None, repr=False)
    _scopes: "list[Scope] | None" = field(default=None, repr=False)
    _imports: "dict[str, str] | None" = field(default=None, repr=False)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: "str | None" = None
    ) -> "ModuleContext":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise ValidationError(f"{path}: not parseable: {error}") from error
        lines = source.splitlines()
        return cls(
            path=path,
            module=module if module is not None else Path(path).stem,
            source=source,
            tree=tree,
            lines=lines,
            pragmas=parse_pragmas(lines),
        )

    @classmethod
    def from_path(cls, path: "Path | str") -> "ModuleContext":
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        return cls.from_source(
            source, path=str(path), module=_module_name(path)
        )

    # -- helpers used by rules -----------------------------------------------------

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def pragma_at(self, line: int) -> "dict[str, object] | None":
        return self.pragmas.get(line)

    def suppression_extents(self) -> "list[tuple[int, int]]":
        if self._extents is None:
            self._extents = pragma_extents(self.tree)
        return self._extents

    def scopes(self) -> "list[Scope]":
        if self._scopes is None:
            self._scopes = scope_extents(self.tree)
        return self._scopes

    @property
    def imports(self) -> "dict[str, str]":
        """Local name -> absolute dotted name for every import in the
        file, built on first use."""
        if self._imports is None:
            self._imports = _import_map(self.tree, self.module, self.path)
        return self._imports

    def resolve(self, name: str) -> "str | None":
        """Dotted ``name`` made absolute through :attr:`imports`, or
        ``None`` when its first part is not an imported name."""
        root, dot, rest = name.partition(".")
        target = self.imports.get(root)
        return None if target is None else target + dot + rest

    def scope_at(self, line: int) -> str:
        """Qualified name of the innermost def/class enclosing ``line``."""
        best = ""
        best_span = None
        for scope in self.scopes():
            if scope.start <= line <= scope.end:
                span = scope.end - scope.start
                if best_span is None or span <= best_span:
                    best, best_span = scope.qualname, span
        return best

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Is ``rule_id`` disabled on ``line`` by an inline pragma?

        A pragma applies to its own physical line and, via
        :func:`pragma_extents`, to every line of the logical statement
        (or decorated def/class header) it lives in.
        """
        if self._pragma_disables(rule_id, line):
            return True
        for start, end in self.suppression_extents():
            if start <= line <= end:
                if any(
                    self._pragma_disables(rule_id, pragma_line)
                    for pragma_line in range(start, end + 1)
                    if pragma_line in self.pragmas
                ):
                    return True
        return False

    def _pragma_disables(self, rule_id: str, line: int) -> bool:
        pragma = self.pragmas.get(line)
        if pragma is None or pragma["kind"] != "disable":
            return False
        rules = pragma["rules"]
        return not rules or rule_id in rules  # bare disable hits every rule

    def in_package(self, *segments: str) -> bool:
        """Does the file live under the given package path?

        Matches either the resolved dotted module name or consecutive
        path segments, so fixture trees laid out as ``.../repro/core/``
        scope the same way the real package does.
        """
        dotted = ".".join(segments)
        if self.module == dotted or self.module.startswith(dotted + "."):
            return True
        parts = Path(self.path).parts
        n = len(segments)
        return any(
            parts[i : i + n] == segments for i in range(len(parts) - n + 1)
        )
