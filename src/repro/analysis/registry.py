"""Rule registry.

Each per-file rule is a function ``(ModuleContext) -> Iterable[Finding]``
registered under a stable id via the :func:`rule` decorator.  The
decorator records the rule's summary and fix hint so reporters and
``lint --list-rules`` render them without importing anything else.

Whole-program rules (REP012+) see the project at once: they are
``(Project) -> Iterable[Finding]`` functions registered via
:func:`project_rule`, because they need the project-wide call graph and
resource summaries, not one file's AST.  Both kinds share one id space
and one registry, and :func:`all_rules` returns them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from ..util.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import Project
    from .context import ModuleContext
    from .findings import Finding

__all__ = [
    "Rule",
    "ProjectRule",
    "rule",
    "project_rule",
    "all_rules",
    "get_rule",
    "make_finding",
]

CheckFn = Callable[["ModuleContext"], Iterable["Finding"]]
ProjectCheckFn = Callable[["Project"], Iterable["Finding"]]


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered per-file invariant check."""

    rule_id: str
    name: str
    summary: str
    hint: str
    check: CheckFn

    def run(self, ctx: "ModuleContext") -> "list[Finding]":
        return list(self.check(ctx))


@dataclass(frozen=True, slots=True)
class ProjectRule:
    """One registered whole-program invariant check."""

    rule_id: str
    name: str
    summary: str
    hint: str
    check: ProjectCheckFn

    def run(self, project: "Project") -> "list[Finding]":
        return list(self.check(project))


_REGISTRY: "dict[str, Rule | ProjectRule]" = {}


def _register(entry: "Rule | ProjectRule") -> None:
    if entry.rule_id in _REGISTRY:
        raise ValidationError(f"duplicate rule id {entry.rule_id!r}")
    _REGISTRY[entry.rule_id] = entry


def rule(rule_id: str, name: str, summary: str, hint: str) -> "Callable[[CheckFn], CheckFn]":
    """Register a per-file ``check`` under ``rule_id``; returns it unchanged."""

    def decorate(check: CheckFn) -> CheckFn:
        _register(Rule(rule_id, name, summary, hint, check))
        return check

    return decorate


def project_rule(
    rule_id: str, name: str, summary: str, hint: str
) -> "Callable[[ProjectCheckFn], ProjectCheckFn]":
    """Register a whole-program ``check`` under ``rule_id``."""

    def decorate(check: ProjectCheckFn) -> ProjectCheckFn:
        _register(ProjectRule(rule_id, name, summary, hint, check))
        return check

    return decorate


def _ensure_loaded() -> None:
    from . import deeprules, rules  # noqa: F401  (importing registers the built-ins)


def all_rules() -> "list[Rule | ProjectRule]":
    """Every registered rule, per-file and whole-program, by id."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> "Rule | ProjectRule":
    _ensure_loaded()
    found = _REGISTRY.get(rule_id)
    if found is None:
        raise ValidationError(f"unknown rule id {rule_id!r}")
    return found


def make_finding(
    ctx: "ModuleContext",
    rule_id: str,
    line: int,
    column: int,
    message: str,
) -> "Finding":
    """Build a finding for ``rule_id``, pulling hint + source text."""
    from .findings import Finding

    return Finding(
        rule_id=rule_id,
        path=ctx.path,
        line=line,
        column=column,
        message=message,
        hint=get_rule(rule_id).hint,
        source_line=ctx.line_text(line),
        context=ctx.scope_at(line),
    )
