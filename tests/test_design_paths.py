"""Every path DESIGN.md names exists; every PAPER_MAP.md pointer resolves.

DESIGN.md points at the code and tests that enforce each invariant; a
rename or deletion that leaves a pointer dangling fails here instead of
misleading the next reader.  A ``path::Name`` pointer must also name a
class or function defined in that file.
"""

import ast
import pathlib
import pkgutil
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
POINTER = re.compile(r"`((?:src|tests|benchmarks|examples|docs)/[^`\s]*)`")


def design_pointers():
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    return sorted(set(POINTER.findall(text)))


def test_design_names_paths():
    assert len(design_pointers()) > 40


def test_every_named_path_exists():
    missing = []
    for pointer in design_pointers():
        path, *names = pointer.split("::")
        target = REPO_ROOT / path
        if not target.exists():
            missing.append(pointer)
            continue
        for name in names:
            if not re.search(
                rf"^\s*(?:class|def) {re.escape(name)}\b",
                target.read_text(encoding="utf-8"),
                re.MULTILINE,
            ):
                missing.append(pointer)
    assert missing == []


def test_every_paper_map_pointer_resolves():
    text = (REPO_ROOT / "docs" / "PAPER_MAP.md").read_text(encoding="utf-8")
    pointers = sorted(set(re.findall(r"`([\w./]+)`", text)))
    defined = set()  # defs and classes, and Class.member for their bodies
    for path in (p for d in ("src", "examples") for p in (REPO_ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                members = [getattr(m, "target", m) for m in node.body]
                members += [t for m in node.body for t in getattr(m, "targets", ())]
                defined.update(f"{node.name}.{getattr(m, 'id', getattr(m, 'name', ''))}" for m in members)
    missing = [p for p in pointers if "/" in p and not any(
        (root / p).exists() for root in (REPO_ROOT, REPO_ROOT / "src" / "repro"))]
    missing += [p for p in pointers if "/" not in p and not p.startswith("repro.") and p not in defined]
    for pointer in (p for p in pointers if p.startswith("repro.")):
        try:
            pkgutil.resolve_name(pointer)
        except (ImportError, AttributeError):
            missing.append(pointer)
    assert sum(p.startswith("repro.") for p in pointers) >= 30
    assert missing == []
