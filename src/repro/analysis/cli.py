"""CLI plumbing for ``python -m repro lint`` and ``... typecheck``.

``lint`` runs every reprolint rule, per-file and whole-program, in one
pass and exits nonzero on any finding an inline pragma does not
sanction; ``typecheck`` runs the strict mypy gate over the packages
``[tool.mypy]`` lists in ``pyproject.toml`` and is skipped gracefully —
exit 0 with a notice — when mypy is not installed, so the in-repo
toolchain never hard-depends on it (CI installs it).
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from ..util.errors import ValidationError
from .engine import LintEngine
from .registry import ProjectRule, all_rules
from .report import render_json, render_text

__all__ = [
    "add_lint_arguments",
    "add_typecheck_arguments",
    "run_lint",
    "run_typecheck",
]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="REPnnn",
        help="run only these rules (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="REPnnn",
        help="skip these rules (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--no-hints", action="store_true", help="omit fix hints from output",
    )


def _split_rule_ids(values: Sequence[str]) -> list[str]:
    """Flatten repeated ``--select``/``--ignore`` flags and comma lists."""
    return [
        part.strip()
        for value in values
        for part in value.split(",")
        if part.strip()
    ]


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            scope = " [whole program]" if isinstance(rule, ProjectRule) else ""
            print(f"{rule.rule_id}  {rule.name}: {rule.summary}{scope}")
        return 0
    try:
        engine = LintEngine(
            select=_split_rule_ids(args.select) or None,
            ignore=_split_rule_ids(args.ignore) or None,
        )
        report = engine.run(args.paths)
    except ValidationError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_hints=not args.no_hints))
    return report.exit_code()


# -- mypy gate -------------------------------------------------------------------


def add_typecheck_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "packages", nargs="*",
        help="packages to check (default: [tool.mypy] packages in "
             "pyproject.toml)",
    )
    parser.add_argument(
        "--require-mypy", action="store_true",
        help="fail (exit 3) instead of skipping when mypy is missing",
    )


def mypy_available() -> bool:
    return importlib.util.find_spec("mypy") is not None


def run_typecheck(args: argparse.Namespace) -> int:
    if not mypy_available():
        message = (
            "typecheck: mypy is not installed; the typed-core gate was "
            "skipped (CI runs it — install mypy to run it locally)"
        )
        print(message, file=sys.stderr)
        return 3 if args.require_mypy else 0
    src = Path(__file__).resolve().parents[2]
    command = [
        sys.executable, "-m", "mypy",
        *(part for package in args.packages for part in ("-p", package)),
    ]
    completed = subprocess.run(  # noqa: S603 - fixed argv, no shell
        command, cwd=src.parent, check=False
    )
    return completed.returncode
