"""The tracer: deterministic nested spans over the simulated clock.

Span/trace ids are drawn from a seeded RNG and timestamps from the
injected :class:`~repro.util.clock.ManualClock`, so a trace is a pure
function of the run's seed — two same-seed runs export byte-identical
JSONL.  The tracer keeps a stack of open spans (nesting) and hands
every finished span to its exporters; it keeps no finished span
itself.  Reports are built from what an exporter collected
(:meth:`~repro.telemetry.report.NegotiationReport.from_spans`).
"""

from __future__ import annotations

from typing import Any, Protocol

from ..util.clock import ManualClock
from ..util.errors import TelemetryError
from ..util.rng import make_rng
from .spans import Span, SpanStatus

__all__ = ["SpanExporter", "Tracer", "NULL_SPAN"]


class SpanExporter(Protocol):
    """Receives every span as it finishes."""

    def export(self, span: Span) -> None: ...


class _NullSpan:
    """The span handed out by a disabled tracer, and its own ``with``
    scope: accepts attributes, records nothing, allocates nothing."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = SpanStatus.OK

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


NULL_SPAN = _NullSpan()

# Ids drawn from the generator per call.  One ``integers(size=8 * N)``
# draw is byte-for-byte the concatenation of N ``size=8`` draws (a
# uint8 draw consumes whole 32-bit words and 8 bytes is two of them),
# so the pool size never shows in an exported id.
_ID_POOL = 1024


class _SpanScope:
    """The ``with`` scope of one live :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(
        self, tracer: "Tracer", name: str, attributes: "dict[str, Any]"
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        self._span = self._tracer.start_span(self._name, **self._attributes)
        return self._span

    def __exit__(self, exc_type: Any, *_: Any) -> None:
        span = self._span
        if exc_type is not None:
            span.status = SpanStatus.ERROR
            span.attributes["error.type"] = exc_type.__name__
        self._tracer.end_span(span)


class Tracer:
    """Deterministic span factory bound to one simulated clock.

    ``seed`` is an integer: the tracer builds a private generator from
    it and draws ids from that in blocks, so it can never be handed a
    generator somebody else is also drawing from.
    """

    def __init__(
        self,
        *,
        clock: ManualClock,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        if not isinstance(seed, int):
            raise TelemetryError(
                "Tracer(seed=) must be an int (the id stream is private "
                f"to the tracer), got {type(seed).__name__}"
            )
        self._rng = make_rng(seed)
        self._id_pool: "list[str]" = []  # reversed: pop() draws the next id
        self._exporters: "list[SpanExporter]" = []
        self._stack: "list[Span]" = []
        self._sequence = 0

    # -- wiring --------------------------------------------------------------------

    def add_exporter(self, exporter: SpanExporter) -> None:
        self._exporters.append(exporter)

    # -- identity ------------------------------------------------------------------

    def _refill(self) -> "list[str]":
        """Slide ``_ID_POOL`` fresh ids under the ones still pooled."""
        fresh = self._rng.integers(
            0, 256, size=8 * _ID_POOL, dtype="uint8"
        ).tobytes().hex(" ", 8).split(" ")
        fresh.reverse()
        self._id_pool[:0] = fresh
        return self._id_pool

    # -- the span lifecycle --------------------------------------------------------

    def start_span(self, name: str, **attributes: Any) -> Span:
        pool = self._id_pool if len(self._id_pool) > 1 else self._refill()
        if self._stack:
            parent = self._stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = pool.pop(), None
        self._sequence += 1
        span = Span(
            name, trace_id, pool.pop(), parent_id, self.clock.now(),
            sequence=self._sequence, attributes=attributes,
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.end_s = self.clock.now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: out-of-order end
            self._stack.remove(span)
        for exporter in self._exporters:
            exporter.export(span)

    def span(
        self, name: str, **attributes: Any
    ) -> "_SpanScope | _NullSpan":
        """Open a nested span for the duration of the ``with`` block.

        The span records failure status but never swallows, converts or
        reorders the exception — instrumentation must be invisible to
        the error-handling paths it wraps.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanScope(self, name, attributes)

    def new_context(self) -> "tuple[str, str]":
        """Pre-allocate a ``(trace_id, span_id)`` for a root span that
        will be emitted *later* via :meth:`emit` with ``context=``.

        Cooperative tasks need this: a negotiation's children (gate
        wait, plan, step-5 attempts) finish while the request is still
        in flight, long before the root's end time is known — and the
        stack-based :meth:`span` cannot stay open across task switches
        without capturing unrelated tasks' spans.  Children emitted
        with ``parent=context`` carry the trace id the root lands with.
        """
        pool = self._id_pool if len(self._id_pool) > 1 else self._refill()
        return pool.pop(), pool.pop()

    def emit(
        self,
        name: str,
        *,
        start_s: float,
        end_s: float,
        parent: "tuple[str, str] | None" = None,
        context: "tuple[str, str] | None" = None,
        attributes: "dict[str, Any] | None" = None,
    ) -> "Span | _NullSpan":
        """Record a manually-timed span (confirmation waits, breaker
        open windows — intervals whose end is observed after the
        enclosing trace closed).  ``parent`` is a ``(trace_id,
        span_id)`` context, e.g. from :meth:`root_context`; ``context``
        instead makes this span the *root* carrying the pre-allocated
        identity from :meth:`new_context`.  The
        span keeps ``attributes`` itself; callers hand over a dict they
        no longer touch."""
        if not self.enabled:
            return NULL_SPAN
        pool = self._id_pool if len(self._id_pool) > 1 else self._refill()
        if context is not None:
            if parent is not None:
                raise TelemetryError(
                    "emit takes parent= or context=, not both"
                )
            trace_id, span_id = context
            parent_id = None
        elif parent is not None:
            trace_id, parent_id = parent
            span_id = pool.pop()
        else:
            trace_id, parent_id = pool.pop(), None
            span_id = pool.pop()
        self._sequence += 1
        span = Span(
            name, trace_id, span_id, parent_id, start_s, end_s, SpanStatus.OK,
            self._sequence, {} if attributes is None else attributes,
        )
        for exporter in self._exporters:
            exporter.export(span)
        return span

    # -- context -------------------------------------------------------------------

    def current_span(self) -> "Span | None":
        return self._stack[-1] if self._stack else None

    def current_context(self) -> "tuple[str, str] | None":
        """(trace_id, span_id) of the innermost open span."""
        if not self._stack:
            return None
        top = self._stack[-1]
        return top.trace_id, top.span_id

    def root_context(self) -> "tuple[str, str] | None":
        """(trace_id, span_id) of the outermost open span — the anchor
        for late spans that belong at the top of the trace."""
        if not self._stack:
            return None
        root = self._stack[0]
        return root.trace_id, root.span_id

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span (no-op when no
        span is open or the tracer is disabled)."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)
