"""The lint engine: file collection, one pass over every rule, filtering.

One :class:`ModuleContext` is built per file (one parse).  Every
selected per-file rule runs over it; the contexts are then distilled
into module extracts, assembled into a
:class:`~repro.analysis.callgraph.Project`, and every selected
whole-program rule runs over that.  Findings of both kinds are filtered
through the inline pragmas of the context they point into.  Files that
fail to parse are reported as engine errors rather than aborting the
run.

The whole-program rules see only the files they are given: linting a
subset builds a call graph of that subset, so a leak whose acquiring
helper lives in an unlinted module goes unseen.  Lint the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..util.errors import ValidationError
from .callgraph import build_project
from .context import ModuleContext
from .extract import extract_module
from .findings import Finding
from .registry import ProjectRule, Rule, all_rules

__all__ = ["LintEngine", "LintReport", "iter_python_files"]

_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".pytest_cache",
    "build",
    "dist",
    ".eggs",
}


def iter_python_files(paths: "Sequence[Path | str]") -> "Iterator[Path]":
    """Yield every ``.py`` file under the given files/directories."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                p
                for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
            )
        elif path.is_file():
            candidates = [path]
        else:
            raise ValidationError(f"no such file or directory: {path}")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


@dataclass(slots=True)
class LintReport:
    """Outcome of one engine run."""

    findings: "list[Finding]" = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    errors: "list[str]" = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def exit_code(self) -> int:
        return 0 if self.clean else 1


class LintEngine:
    """Run the per-file and whole-program rules over a set of files."""

    def __init__(
        self,
        *,
        select: "Sequence[str] | None" = None,
        ignore: "Sequence[str] | None" = None,
    ) -> None:
        available = all_rules()
        known = {r.rule_id for r in available}
        for rule_id in list(select or []) + list(ignore or []):
            if rule_id not in known:
                raise ValidationError(f"unknown rule id {rule_id!r}")
        if select:
            wanted = set(select)
            available = [r for r in available if r.rule_id in wanted]
        if ignore:
            dropped = set(ignore)
            available = [r for r in available if r.rule_id not in dropped]
        self.file_rules = [r for r in available if isinstance(r, Rule)]
        self.project_rules = [r for r in available if isinstance(r, ProjectRule)]

    # -- raw findings (no pragma filtering) ------------------------------------------

    def check_contexts(self, contexts: "Sequence[ModuleContext]") -> "list[Finding]":
        """Every selected rule over these parsed files, as one project."""
        findings: list[Finding] = []
        for ctx in contexts:
            for file_rule in self.file_rules:
                findings.extend(file_rule.run(ctx))
        if self.project_rules:
            project = build_project(extract_module(ctx) for ctx in contexts)
            for project_rule in self.project_rules:
                findings.extend(project_rule.run(project))
        return sorted(findings, key=Finding.sort_key)

    def check_source(
        self, source: str, *, path: str = "<string>", module: "str | None" = None
    ) -> "list[Finding]":
        return self.check_contexts(
            [ModuleContext.from_source(source, path=path, module=module)]
        )

    # -- full run ------------------------------------------------------------------

    def run(self, paths: "Sequence[Path | str]") -> LintReport:
        report = LintReport()
        contexts: dict[str, ModuleContext] = {}
        for path in iter_python_files(paths):
            try:
                ctx = ModuleContext.from_path(path)
            except (ValidationError, OSError, UnicodeDecodeError) as error:
                report.errors.append(str(error))
                continue
            contexts[ctx.path] = ctx
        report.files_checked = len(contexts)
        for finding in self.check_contexts(list(contexts.values())):
            if contexts[finding.path].suppressed(finding.rule_id, finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)
        return report
