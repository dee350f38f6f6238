"""Deterministic, zero-dependency observability for the negotiation stack.

Three layers behind one :class:`Telemetry` hub:

* **tracing** (:mod:`repro.telemetry.tracer`) — nested spans with a
  span per negotiation step (paper §4 steps 1–6), one child span per
  admission attempt, plus journal appends/replays, lease reaps, breaker
  windows, adaptation switches and playout heartbeats.  Timestamps come
  from the injected :class:`~repro.util.clock.ManualClock` and ids from
  a seeded RNG, so traces are byte-reproducible;
* **metrics** (:mod:`repro.telemetry.metrics`) — catalog-validated
  counters, gauges and fixed-bucket histograms
  (:mod:`repro.telemetry.catalog` is the only place names are born);
* **export** (:mod:`repro.telemetry.export`) — in-memory and JSONL span
  exporters plus text renderers; ``python -m repro trace`` and
  ``python -m repro stats`` drive them from the CLI.

Instrumented components take an optional hub and default to the shared
*disabled* hub, whose every operation is a cheap no-op — the seed
behaviour of the library is unchanged until a deployment opts in.
"""

from __future__ import annotations

from typing import Any, Callable

from ..util.clock import ManualClock
from .catalog import CATALOG, METRICS, MetricKind, MetricSpec, metric_names
from .export import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    render_span_tree,
)
from .instrument import observe_breaker, traced
from .metrics import (
    HistogramState,
    MetricsRegistry,
    format_metric_key,
    parse_metric_key,
)
from .profiler import (
    CriticalPath,
    ProfileReport,
    extract_critical_paths,
    folded_stacks,
    profile_spans,
    write_flamegraph,
)
from .report import (
    AttemptSummary,
    NegotiationReport,
    StepSummary,
    reconcile_journal,
)
from .slo import (
    BurnAlert,
    BurnRatePolicy,
    EventSelector,
    SloReport,
    SloResult,
    SloSpec,
    default_slos,
    evaluate_slos,
)
from .spans import Span, SpanStatus
from .timeseries import FlightRecorder
from .tracer import NULL_SPAN, SpanExporter, Tracer

__all__ = [
    "CATALOG",
    "METRICS",
    "MetricKind",
    "MetricSpec",
    "metric_names",
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "render_span_tree",
    "observe_breaker",
    "traced",
    "HistogramState",
    "MetricsRegistry",
    "format_metric_key",
    "parse_metric_key",
    "CriticalPath",
    "ProfileReport",
    "extract_critical_paths",
    "folded_stacks",
    "profile_spans",
    "write_flamegraph",
    "BurnAlert",
    "BurnRatePolicy",
    "EventSelector",
    "SloReport",
    "SloResult",
    "SloSpec",
    "default_slos",
    "evaluate_slos",
    "FlightRecorder",
    "AttemptSummary",
    "NegotiationReport",
    "StepSummary",
    "reconcile_journal",
    "Span",
    "SpanStatus",
    "NULL_SPAN",
    "SpanExporter",
    "Tracer",
    "Telemetry",
]


class Telemetry:
    """One tracer + one metrics registry sharing a clock and a seed."""

    def __init__(
        self,
        *,
        clock: ManualClock,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.seed = seed
        self.enabled = enabled
        self.tracer = Tracer(clock=clock, seed=seed, enabled=enabled)
        self.metrics = MetricsRegistry(enabled=enabled)

    # -- convenience delegates (the one-line call sites) ---------------------------
    # Each hands out the component's own bound method, looked up per
    # use: ``telemetry.count(...)`` is then one call, not two with the
    # label dict re-packed in between, and it runs whatever
    # ``MetricsRegistry.count`` the class holds at that moment.

    @property
    def span(self) -> "Callable[..., Any]":
        return self.tracer.span

    @property
    def count(self) -> "Callable[..., None]":
        return self.metrics.count

    @property
    def observe(self) -> "Callable[[str, float], None]":
        return self.metrics.observe

    @property
    def annotate(self) -> "Callable[..., None]":
        return self.tracer.annotate

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared inert hub: every span/count is a no-op.  One
        instance serves the whole process — it holds no state."""
        return _DISABLED


_DISABLED = Telemetry(clock=ManualClock(), enabled=False)
