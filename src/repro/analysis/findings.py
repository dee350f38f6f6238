"""Lint findings: what a rule reports and how findings are identified.

A finding pins a rule violation to a ``file:line`` location, carries the
human-facing message and fix hint, and exposes a *fingerprint* — a
stable hash of (rule id, file name, code-context hash) that the JSON
report carries so a finding can be tracked across edits that only move
line numbers.  The code context is the offending source text anchored
to the qualified name of its enclosing function/class, so two identical
lines in different functions get different fingerprints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    hint: str = ""
    source_line: str = field(default="", compare=False)
    context: str = field(default="", compare=False)  # enclosing def/class qualname

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    @property
    def _basename(self) -> str:
        return self.path.replace("\\", "/").rsplit("/", 1)[-1]

    @property
    def fingerprint(self) -> str:
        """Stable identity of the finding.

        Deliberately excludes the line *number* (it must survive edits
        elsewhere in the file) but includes the code-context hash —
        enclosing scope qualname plus stripped source text — so it never
        matches an identical line in a different function.
        """
        return _digest(
            self.rule_id,
            self._basename,
            _digest(self.context, self.source_line.strip()),
        )

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule_id)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
            "source_line": self.source_line,
            "context": self.context,
            "fingerprint": self.fingerprint,
        }
