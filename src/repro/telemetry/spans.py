"""Trace spans: the unit of the negotiation timeline.

A :class:`Span` is one timed operation — a negotiation step, an
admission attempt, a journal append — with a deterministic identity:
ids come from the tracer's seeded RNG, timestamps from the injected
:class:`~repro.util.clock.ManualClock`, and the monotonically
increasing ``sequence`` fixes a total order even among zero-duration
spans.  Serialization is canonical JSON (sorted keys, compact
separators) so two same-seed runs produce byte-identical JSONL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span", "SpanStatus"]


class SpanStatus:
    """String constants for :attr:`Span.status` (no enum: the span is
    serialized verbatim and compared byte-for-byte)."""

    OK = "ok"
    ERROR = "error"


@dataclass(slots=True)
class Span:
    """One timed, attributed operation in a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: "str | None"
    start_s: float
    end_s: "float | None" = None
    status: str = SpanStatus.OK
    sequence: int = 0
    attributes: "dict[str, Any]" = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Simulated duration; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    # -- canonical serialization ---------------------------------------------------

    def to_dict(self) -> "dict[str, Any]":
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "sequence": self.sequence,
            "attributes": dict(self.attributes),
        }

    def to_json_line(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
