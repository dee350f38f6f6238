"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintReport

__all__ = ["render_text", "render_json"]


def render_text(report: "LintReport", *, show_hints: bool = True) -> str:
    """GCC-style ``file:line:col: RULE message`` lines plus a summary."""
    lines: list[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.location()}: {finding.rule_id} {finding.message}"
        )
        if show_hints and finding.hint:
            lines.append(f"    hint: {finding.hint}")
    for error in report.errors:
        lines.append(f"error: {error}")
    count = len(report.findings)
    summary = (
        f"{count} finding{'s' if count != 1 else ''} "
        f"in {report.files_checked} file{'s' if report.files_checked != 1 else ''}"
    )
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed inline)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: "LintReport") -> str:
    payload = {
        "findings": [finding.to_dict() for finding in report.findings],
        "errors": list(report.errors),
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "clean": report.clean,
    }
    return json.dumps(payload, indent=2)
