"""The deterministic critical-path profiler.

A negotiation's latency is not one number — it is queue wait at the
admission gate, planning (§4 steps 1–4), the step-5 reservation walk
(split into the committed attempt, rolled-back retries, and abandoned
attempts), and whatever remains: time parked in the cooperative
scheduler behind other tasks.  This module extracts that breakdown
from the span trees the service emits (root ``service.negotiation``
per request, children emitted against its pre-allocated context) and
from synchronous ``negotiation`` traces (steps 1–6 as nested spans),
then aggregates them into:

* a :class:`ProfileReport` naming the **top bottleneck** — the segment
  with the largest share of total latency;
* a **folded-stack flamegraph** (``root;segment <microseconds>``, one
  line per stack, sorted) that any flamegraph renderer consumes.

Simulated time is exact and the spans are seeded, so the same run
profiles to byte-identical output — flamegraphs diff cleanly in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Union

from ..util.tables import render_table
from .report import STEP_SPANS
from .spans import Span

__all__ = [
    "CriticalPath",
    "ProfileReport",
    "extract_critical_paths",
    "profile_spans",
    "folded_stacks",
    "write_flamegraph",
]

# Segment order is the canonical rendering/tie-break order: the
# request's own timeline, queue first, residual last.
SERVICE_SEGMENTS: "tuple[str, ...]" = (
    "gate.wait",
    "plan",
    "step5.commit",
    "step5.retry",
    "step5.abandoned",
    "scheduler.other",
)

SYNC_SEGMENTS: "tuple[str, ...]" = tuple(
    name for _, name, _ in STEP_SPANS
) + ("scheduler.other",)

_ATTEMPT_SEGMENT = {
    "committed": "step5.commit",
    "rolled-back": "step5.retry",
    "memo-skip": "step5.retry",   # a refusal the walk did not re-ask for
    "abandoned": "step5.abandoned",
}


@dataclass(slots=True)
class CriticalPath:
    """One negotiation's latency, attributed segment by segment."""

    trace_id: str
    root: str
    label: str
    status: str
    start_s: float
    end_s: float
    segments: "dict[str, float]" = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> "dict[str, Any]":
        return {
            "trace_id": self.trace_id,
            "root": self.root,
            "label": self.label,
            "status": self.status,
            "total_s": round(self.total_s, 9),
            "segments": {
                name: round(value, 9)
                for name, value in self.segments.items()
            },
        }


def _segment_order(root: str) -> "tuple[str, ...]":
    return SERVICE_SEGMENTS if root == "service.negotiation" else SYNC_SEGMENTS


def _path_from_service_trace(
    root: Span, children: "list[Span]"
) -> CriticalPath:
    segments = {name: 0.0 for name in SERVICE_SEGMENTS}
    for span in children:
        if span.name == "service.gate.wait":
            segments["gate.wait"] += span.duration_s
        elif span.name == "service.plan":
            segments["plan"] += span.duration_s
        elif span.name == "negotiation.step5.attempt":
            outcome = str(span.attributes.get("outcome", "rolled-back"))
            segment = _ATTEMPT_SEGMENT.get(outcome, "step5.retry")
            segments[segment] += span.duration_s
    return _finish_path(root, segments)


def _path_from_sync_trace(
    root: Span, children: "list[Span]"
) -> CriticalPath:
    segments = {name: 0.0 for name in SYNC_SEGMENTS}
    # Only the top-level step spans count — a step-5 span's nested
    # attempt spans overlap their parent and would double-charge.
    top_level = {span.span_id for span in children
                 if span.parent_id == root.span_id}
    for span in children:
        if span.name in segments and span.span_id in top_level:
            segments[span.name] += span.duration_s
    return _finish_path(root, segments)


def _finish_path(root: Span, segments: "dict[str, float]") -> CriticalPath:
    attributed = sum(segments.values())
    total = root.duration_s
    segments["scheduler.other"] = max(0.0, total - attributed)
    return CriticalPath(
        trace_id=root.trace_id,
        root=root.name,
        label=str(root.attributes.get("label", root.trace_id)),
        status=str(root.attributes.get("status", "")),
        start_s=root.start_s,
        end_s=root.end_s if root.end_s is not None else root.start_s,
        segments=segments,
    )


def extract_critical_paths(
    spans: "Iterable[Span]",
) -> "list[CriticalPath]":
    """One :class:`CriticalPath` per negotiation root found in
    ``spans`` (service or synchronous), in root start order."""
    by_trace: "dict[str, list[Span]]" = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    paths: "list[CriticalPath]" = []
    for trace in by_trace.values():
        root = None
        for span in trace:
            if span.parent_id is None and span.name in (
                "service.negotiation", "negotiation"
            ):
                root = span
                break
        if root is None:
            continue
        children = [s for s in trace if s is not root]
        if root.name == "service.negotiation":
            paths.append(_path_from_service_trace(root, children))
        else:
            paths.append(_path_from_sync_trace(root, children))
    paths.sort(key=lambda p: (p.start_s, p.label))
    return paths


@dataclass(slots=True)
class ProfileReport:
    """Aggregated critical paths: where did the simulated time go?"""

    paths: int = 0
    total_s: float = 0.0
    segment_totals: "dict[str, float]" = field(default_factory=dict)

    @property
    def top_bottleneck(self) -> "str | None":
        """The segment holding the largest share of total latency
        (first in canonical order on ties); None without data."""
        best = None
        best_value = 0.0
        for name, value in self.segment_totals.items():
            if value > best_value + 1e-12:
                best, best_value = name, value
        return best

    def share(self, segment: str) -> float:
        if self.total_s <= 0:
            return 0.0
        return self.segment_totals.get(segment, 0.0) / self.total_s

    def as_dict(self) -> "dict[str, Any]":
        return {
            "paths": self.paths,
            "total_s": round(self.total_s, 9),
            "segments": {
                name: round(value, 9)
                for name, value in self.segment_totals.items()
            },
            "top_bottleneck": self.top_bottleneck,
        }

    def render(self) -> str:
        if not self.paths:
            return "profile: (no negotiation traces)"
        rows = []
        for name, value in self.segment_totals.items():
            mean_ms = value / self.paths * 1e3
            rows.append((
                name,
                f"{value:.3f}",
                f"{mean_ms:.2f}",
                f"{self.share(name) * 100:.1f}%",
                "<-- top bottleneck" if name == self.top_bottleneck else "",
            ))
        return render_table(
            ("segment", "total s", "mean ms/negotiation", "share", ""),
            rows,
            title=f"critical path over {self.paths} negotiations",
        )


def profile_spans(spans: "Iterable[Span]") -> ProfileReport:
    """Extract and aggregate every negotiation critical path."""
    paths = extract_critical_paths(spans)
    report = ProfileReport(paths=len(paths))
    if not paths:
        return report
    order = _segment_order(paths[0].root)
    totals = {name: 0.0 for name in order}
    for path in paths:
        report.total_s += path.total_s
        for name, value in path.segments.items():
            totals[name] = totals.get(name, 0.0) + value
    report.segment_totals = totals
    return report


def folded_stacks(
    paths: "Iterable[CriticalPath]", *, prefix: str = ""
) -> "list[str]":
    """Folded flamegraph lines: ``[prefix;]root;segment <µs>``, summed
    and sorted.  Values are integer simulated microseconds, so the
    artifact is byte-stable across same-seed runs."""
    weights: "dict[str, int]" = {}
    for path in paths:
        base = f"{prefix};{path.root}" if prefix else path.root
        for segment, seconds in path.segments.items():
            micros = int(round(seconds * 1e6))
            if micros <= 0:
                continue
            stack = f"{base};{segment}"
            weights[stack] = weights.get(stack, 0) + micros
    return [f"{stack} {weights[stack]}" for stack in sorted(weights)]


def write_flamegraph(
    path: "Union[str, Path]",
    sections: "dict[str, list[CriticalPath]]",
) -> int:
    """Write one folded-stack file covering ``sections`` (e.g. one per
    load multiplier; the section name prefixes each stack).  Returns
    the number of lines written."""
    lines: "list[str]" = []
    for name in sorted(sections):
        lines.extend(folded_stacks(sections[name], prefix=name))
    Path(path).write_text(
        "\n".join(lines) + ("\n" if lines else ""),
        encoding="utf-8", newline="\n",
    )
    return len(lines)
