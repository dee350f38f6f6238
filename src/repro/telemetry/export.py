"""Span exporters and the text renderer for span trees.

Two exporters: in-memory (inspection, the ``repro trace`` tree) and
JSONL (one canonical JSON object per line — the byte-reproducible
artifact the CI determinism check diffs).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

from ..util.errors import TelemetryError
from .spans import Span, SpanStatus

__all__ = [
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "render_span_tree",
]


class InMemorySpanExporter:
    """Collects every finished span in export (i.e. end) order."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []

    def export(self, span: Span) -> None:
        self.spans.append(span)

    def by_trace(self) -> "dict[str, list[Span]]":
        """Spans grouped by trace, traces in first-finished order."""
        grouped: "dict[str, list[Span]]" = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def clear(self) -> None:
        self.spans.clear()


class JsonlSpanExporter:
    """Writes one canonical JSON line per finished span."""

    def __init__(self, path: "Union[str, Path]") -> None:
        self.path = Path(path)
        self._handle: "io.TextIOWrapper | None" = None
        self.exported = 0

    def export(self, span: Span) -> None:
        if self._handle is None:
            self._handle = self.path.open("w", encoding="utf-8", newline="\n")
        self._handle.write(span.to_json_line() + "\n")
        self._handle.flush()
        self.exported += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSpanExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _format_span(span: Span) -> str:
    parts = [span.name]
    if span.duration_s > 0:
        parts.append(f"({span.duration_s:g}s)")
    if span.status != SpanStatus.OK:
        parts.append(f"status={span.status}")
    for key in sorted(span.attributes):
        value = span.attributes[key]
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_span_tree(spans: "list[Span] | tuple[Span, ...]") -> str:
    """ASCII tree of one or more traces, children under parents in
    sequence order."""
    if not spans:
        return "(no spans)"
    by_id = {span.span_id: span for span in spans}
    children: "dict[str | None, list[Span]]" = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: s.sequence)
    roots = children.get(None, [])
    if not roots:
        raise TelemetryError("span set has no root (orphan parent ids)")

    lines: "list[str]" = []

    def walk(span: Span, prefix: str, is_last: bool, top: bool) -> None:
        if top:
            lines.append(_format_span(span))
            child_prefix = ""
        else:
            connector = "`-- " if is_last else "|-- "
            lines.append(prefix + connector + _format_span(span))
            child_prefix = prefix + ("    " if is_last else "|   ")
        kids = children.get(span.span_id, [])
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, False)

    for index, root in enumerate(roots):
        if index:
            lines.append("")
        lines.append(f"trace {root.trace_id} t={root.start_s:g}s")
        walk(root, "", True, True)
    return "\n".join(lines)
