"""Tracer: nesting, determinism, error transparency."""

import numpy as np
import pytest

from repro.telemetry import NULL_SPAN, InMemorySpanExporter, Telemetry, Tracer, traced
from repro.telemetry import tracer as tracer_module
from repro.telemetry.spans import SpanStatus
from repro.util.clock import ManualClock
from repro.util.errors import AdmissionError, ReproError


def make_tracer(seed=0, clock=None):
    return Tracer(clock=clock or ManualClock(), seed=seed)


class TestNesting:
    def test_child_spans_share_the_trace_and_point_at_their_parent(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sequence_fixes_a_total_order(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.sequence > outer.sequence

    def test_timestamps_come_from_the_injected_clock(self):
        clock = ManualClock()
        tracer = make_tracer(clock=clock)
        with tracer.span("step") as span:
            clock.advance(2.5)
        assert span.start_s == 0.0
        assert span.end_s == 2.5
        assert span.duration_s == 2.5

    def test_last_trace_holds_the_whole_finished_root_trace(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        names = [span.name for span in tracer.last_trace()]
        assert names == ["root", "child"]

    def test_emit_parents_a_late_span_under_a_closed_trace(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            context = tracer.root_context()
        late = tracer.emit(
            "late", start_s=1.0, end_s=2.0, parent=context
        )
        assert late.trace_id == root.trace_id
        assert late.parent_id == root.span_id

    def test_annotate_targets_the_innermost_open_span(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.annotate(key="value")
        assert inner.attributes == {"key": "value"}
        assert "key" not in outer.attributes


class TestDeterminism:
    def test_same_seed_same_ids(self):
        first, second = make_tracer(seed=7), make_tracer(seed=7)
        for tracer in (first, second):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        lines = lambda t: [s.to_json_line() for s in t.last_trace()]  # noqa: E731
        assert lines(first) == lines(second)

    def test_different_seed_different_ids(self):
        first, second = make_tracer(seed=1), make_tracer(seed=2)
        for tracer in (first, second):
            with tracer.span("root"):
                pass
        assert (
            first.last_trace()[0].trace_id != second.last_trace()[0].trace_id
        )


class TestErrorTransparency:
    """Instrumentation must never swallow, convert or reorder errors."""

    def test_span_records_error_status_and_reraises_the_same_object(self):
        tracer = make_tracer()
        exporter = InMemorySpanExporter()
        tracer.add_exporter(exporter)
        error = AdmissionError("server full")
        with pytest.raises(AdmissionError) as caught:
            with tracer.span("attempt"):
                raise error
        assert caught.value is error
        (span,) = exporter.spans
        assert span.status == SpanStatus.ERROR
        assert span.attributes["error.type"] == "AdmissionError"
        assert span.end_s is not None  # the span still closed

    def test_traced_decorator_is_transparent_to_repro_errors(self):
        telemetry = Telemetry(clock=ManualClock(), seed=0)
        error = AdmissionError("no capacity")

        class Component:
            def __init__(self, hub):
                self.telemetry = hub

            @traced("component.op")
            def op(self):
                raise error

        with pytest.raises(ReproError) as caught:
            Component(telemetry).op()
        assert caught.value is error
        with pytest.raises(ReproError) as caught:
            Component(Telemetry.disabled()).op()
        assert caught.value is error
        with pytest.raises(ReproError) as caught:
            Component(None).op()
        assert caught.value is error


class TestDisabledTracer:
    def test_disabled_span_is_the_shared_null_span(self):
        tracer = Tracer(clock=ManualClock(), enabled=False)
        with tracer.span("anything", key=1) as span:
            span.set_attribute("more", 2)
        assert span is NULL_SPAN
        assert tracer.last_trace() == ()

    def test_disabled_hub_is_a_singleton(self):
        assert Telemetry.disabled() is Telemetry.disabled()
        assert not Telemetry.disabled().enabled


def reference_ids(seed, count):
    """The id stream as first shipped: one 8-byte draw per id.  Kept as
    the oracle — every exported trace is pinned to this sequence."""
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=8, dtype="uint8").tobytes().hex()
        for _ in range(count)
    ]


class TestIdStream:
    IDS = 5000  # the pool refills at least four times on the way

    def test_the_oracle_spans_several_refills(self):
        assert self.IDS >= 3 * tracer_module._ID_POOL

    def drain(self, tracer, count):
        """``count`` ids through every path that draws one, interleaved."""
        ids = []
        while len(ids) < count:
            turn = len(ids) % 7
            if turn < 2:
                ids.extend(tracer.new_context())
            elif turn < 4:
                orphan = tracer.emit("orphan", start_s=0.0, end_s=0.0)
                ids.extend((orphan.trace_id, orphan.span_id))
            elif turn < 5:
                context = tracer.new_context()
                child = tracer.emit(
                    "child", start_s=0.0, end_s=0.0, parent=context
                )
                ids.extend((*context, child.span_id))
            else:
                with tracer.span("root") as root:
                    with tracer.span("nested") as nested:
                        pass
                ids.extend((root.trace_id, root.span_id, nested.span_id))
        return ids[:count]

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_ids_equal_the_per_id_reference_formula(self, seed):
        ids = self.drain(make_tracer(seed=seed), self.IDS)
        assert ids == reference_ids(seed, self.IDS)

    def test_same_seed_tracers_never_share_a_stream(self):
        first, second = make_tracer(seed=3), make_tracer(seed=3)
        expected = reference_ids(3, 64)
        # Interleave the two: each must see the whole stream, not half.
        got_first, got_second = [], []
        for _ in range(32):
            got_first.extend(first.new_context())
            got_second.extend(second.new_context())
        assert got_first == expected
        assert got_second == expected
