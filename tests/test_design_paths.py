"""Every repository path DESIGN.md names exists.

DESIGN.md points at the code and tests that enforce each invariant; a
rename or deletion that leaves a pointer dangling fails here instead of
misleading the next reader.  A ``path::Name`` pointer must also name a
class or function defined in that file.
"""

import pathlib
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
