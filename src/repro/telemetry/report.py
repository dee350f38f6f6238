"""Machine-readable negotiation reports built from the trace.

The :class:`NegotiationReport` replaces ad-hoc tuples of step
statistics: it is derived purely from the spans of one finished
negotiation trace, so the numbers the user sees in ``repro trace`` are
exactly the numbers the tracer recorded — there is no second
bookkeeping path to drift.

Also here: :func:`reconcile_journal`, the audit ``repro stats`` runs to
prove the metrics, the write-ahead journal and the leak audit agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..journal.records import TERMINAL_TYPES, JournalRecordType
from .spans import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..journal.store import ReservationJournal
    from .metrics import MetricsRegistry

__all__ = [
    "STEP_SPANS",
    "AttemptSummary",
    "StepSummary",
    "NegotiationReport",
    "reconcile_journal",
]

# Paper §4 step number -> span name (the taxonomy DESIGN.md §9 tables).
STEP_SPANS: "tuple[tuple[int, str, str], ...]" = (
    (1, "negotiation.step1.local", "static local negotiation"),
    (2, "negotiation.step2.filter", "static compatibility checking"),
    (3, "negotiation.step3.parameters", "classification parameters"),
    (4, "negotiation.step4.classify", "classification of system offers"),
    (5, "negotiation.step5.commit", "resource commitment"),
    (6, "negotiation.step6.confirm", "user confirmation"),
)


@dataclass(slots=True)
class StepSummary:
    """One negotiation step as the trace recorded it."""

    step: int
    title: str
    span_name: str
    ran: bool
    status: str = "ok"
    offers_in: "int | None" = None
    offers_out: "int | None" = None
    dropped: int = 0
    drop_reasons: "dict[str, int]" = field(default_factory=dict)
    attributes: "dict[str, Any]" = field(default_factory=dict)


@dataclass(slots=True)
class AttemptSummary:
    """One step-5 admission attempt (or breaker / refusal-memo skip)."""

    offer_id: str
    servers: "tuple[str, ...]"
    # committed | rolled-back | breaker-skip | memo-skip
    outcome: str
    refusal: "str | None" = None
    refused_by: "str | None" = None  # memo-skip: the server that had said no


@dataclass(slots=True)
class NegotiationReport:
    """Per-step offer accounting + attempted offers, from one trace."""

    trace_id: str
    status: str
    document: str
    profile: str
    steps: "list[StepSummary]" = field(default_factory=list)
    attempts: "list[AttemptSummary]" = field(default_factory=list)
    attributes: "dict[str, Any]" = field(default_factory=dict)

    @classmethod
    def from_spans(
        cls, spans: "tuple[Span, ...] | list[Span]"
    ) -> "NegotiationReport":
        root = next((s for s in spans if s.name == "negotiation"), None)
        by_name: "dict[str, Span]" = {}
        attempts: "list[AttemptSummary]" = []
        for span in spans:
            if span.name == "negotiation.step5.attempt":
                attempts.append(
                    AttemptSummary(
                        offer_id=str(span.attributes.get("offer_id", "?")),
                        servers=tuple(span.attributes.get("servers", ())),
                        outcome=str(span.attributes.get("outcome", "?")),
                        refusal=span.attributes.get("refusal"),
                        refused_by=span.attributes.get("server_id"),
                    )
                )
            elif span.name not in by_name:
                by_name[span.name] = span
        report = cls(
            trace_id=root.trace_id if root is not None else "",
            status=str(root.attributes.get("status", "?")) if root else "?",
            document=str(root.attributes.get("document", "?")) if root else "?",
            profile=str(root.attributes.get("profile", "?")) if root else "?",
            attempts=attempts,
            attributes=dict(root.attributes) if root is not None else {},
        )
        for step, span_name, title in STEP_SPANS:
            span = by_name.get(span_name)
            if span is None:
                report.steps.append(
                    StepSummary(step, title, span_name, ran=False)
                )
                continue
            attrs = span.attributes
            report.steps.append(
                StepSummary(
                    step=step,
                    title=title,
                    span_name=span_name,
                    ran=True,
                    status=span.status,
                    offers_in=attrs.get("offers_in"),
                    offers_out=attrs.get("offers_out"),
                    dropped=int(attrs.get("dropped", 0)),
                    drop_reasons=dict(attrs.get("drop_reasons", {})),
                    attributes=dict(attrs),
                )
            )
        return report

    @property
    def total_dropped(self) -> int:
        return sum(step.dropped for step in self.steps)

    def as_dict(self) -> "dict[str, Any]":
        return {
            "trace_id": self.trace_id,
            "status": self.status,
            "document": self.document,
            "profile": self.profile,
            "steps": [
                {
                    "step": s.step,
                    "title": s.title,
                    "span": s.span_name,
                    "ran": s.ran,
                    "status": s.status,
                    "offers_in": s.offers_in,
                    "offers_out": s.offers_out,
                    "dropped": s.dropped,
                    "drop_reasons": dict(s.drop_reasons),
                }
                for s in self.steps
            ],
            "attempts": [
                {
                    "offer_id": a.offer_id,
                    "servers": list(a.servers),
                    "outcome": a.outcome,
                    "refusal": a.refusal,
                    "refused_by": a.refused_by,
                }
                for a in self.attempts
            ],
        }

    def render(self) -> str:
        lines = [
            f"negotiation report (trace {self.trace_id})",
            f"  document={self.document} profile={self.profile} "
            f"status={self.status}",
        ]
        for step in self.steps:
            label = f"  step {step.step} {step.title:<34}"
            if not step.ran:
                lines.append(f"{label} (not reached)")
                continue
            bits = []
            if step.offers_in is not None:
                bits.append(f"offers_in={step.offers_in}")
            if step.offers_out is not None:
                bits.append(f"offers_out={step.offers_out}")
            bits.append(f"dropped={step.dropped}")
            if step.drop_reasons:
                reasons = ", ".join(
                    f"{key}: {count}"
                    for key, count in sorted(step.drop_reasons.items())
                )
                bits.append(f"[{reasons}]")
            for key in ("violations", "attempts", "breaker_skips", "outcome"):
                if key in step.attributes:
                    bits.append(f"{key}={step.attributes[key]}")
            lines.append(f"{label} {' '.join(bits)}")
        if self.attempts:
            lines.append("  commitment attempts:")
            for index, attempt in enumerate(self.attempts, start=1):
                detail = f"offer={attempt.offer_id} outcome={attempt.outcome}"
                if attempt.servers:
                    detail += f" servers={','.join(attempt.servers)}"
                if attempt.refusal:
                    detail += f" refusal={attempt.refusal}"
                if attempt.refused_by:
                    detail += f" refused_by={attempt.refused_by}"
                lines.append(f"    {index}. {detail}")
        return "\n".join(lines)


def reconcile_journal(
    journal: "ReservationJournal",
    metrics: "MetricsRegistry | None" = None,
) -> "dict[str, Any]":
    """Audit the journal against itself and (optionally) the metrics.

    Invariants checked:

    * every holder with a ``RESERVED`` record ends on a terminal record
      (``RELEASED``/``EXPIRED``) — reserved capacity never outlives its
      negotiation (``reserved == confirmed-then-closed + released +
      expired``, i.e. zero open holders);
    * when a registry is given, its ``journal.records{type}`` counters
      equal the journal's actual per-type record counts.
    """
    by_type: "dict[str, int]" = {}
    for record in journal.records():
        key = record.record_type.value
        by_type[key] = by_type.get(key, 0) + 1
    reserved_holders = 0
    open_holders: "list[str]" = []
    for holder, timeline in journal.by_holder().items():
        if not any(
            r.record_type is JournalRecordType.RESERVED for r in timeline
        ):
            continue
        reserved_holders += 1
        if timeline[-1].record_type not in TERMINAL_TYPES:
            open_holders.append(holder)
    result: "dict[str, Any]" = {
        "records": len(journal),
        "records_by_type": {key: by_type[key] for key in sorted(by_type)},
        "reserved_holders": reserved_holders,
        "closed_holders": reserved_holders - len(open_holders),
        "open_holders": sorted(open_holders),
        "balanced": not open_holders,
    }
    if metrics is not None:
        counted = {
            key: int(
                metrics.counter_value("journal.records", type=key)
            )
            for key in sorted(by_type)
        }
        result["metrics_records_by_type"] = counted
        result["metrics_match"] = counted == result["records_by_type"]
    return result
