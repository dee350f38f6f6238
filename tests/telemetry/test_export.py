"""Exporters: JSONL round-trips and byte-identical same-seed runs."""

import pytest

from repro.core import standard_profiles
from repro.sim import ScenarioSpec, build_scenario
from repro.telemetry import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    Tracer,
    read_spans_jsonl,
    render_span_tree,
)
from repro.telemetry.spans import Span
from repro.util.clock import ManualClock
from repro.util.errors import TelemetryError


def run_traced_negotiation(path, seed):
    """One confirmed negotiation with its trace exported to ``path``."""
    scenario = build_scenario(
        ScenarioSpec(document_count=2), telemetry_seed=seed
    )
    exporter = JsonlSpanExporter(path)
    scenario.telemetry.tracer.add_exporter(exporter)
    profile = next(
        p for p in standard_profiles() if p.name == "balanced"
    )
    result = scenario.manager.negotiate(
        scenario.document_ids()[0], profile, scenario.any_client()
    )
    assert result.commitment is not None
    result.commitment.confirm(scenario.clock.now())
    result.commitment.release()
    exporter.close()
    return exporter


class TestJsonlRoundTrip:
    def test_spans_survive_the_round_trip_exactly(self, tmp_path):
        clock = ManualClock()
        tracer = Tracer(clock=clock, seed=3)
        path = tmp_path / "trace.jsonl"
        memory = InMemorySpanExporter()
        tracer.add_exporter(memory)
        with JsonlSpanExporter(path) as exporter:
            tracer.add_exporter(exporter)
            with tracer.span("root", document="doc.test"):
                clock.advance(1.0)
                with tracer.span("child", offers_in=16):
                    clock.advance(0.5)
        originals = sorted(memory.spans, key=lambda s: s.sequence)
        restored = sorted(read_spans_jsonl(path), key=lambda s: s.sequence)
        assert [s.to_dict() for s in restored] == [
            s.to_dict() for s in originals
        ]

    def test_malformed_lines_raise_telemetry_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(TelemetryError):
            read_spans_jsonl(path)
        path.write_text('{"name": "x"}\n', encoding="utf-8")
        with pytest.raises(TelemetryError, match="malformed span record"):
            read_spans_jsonl(path)


class TestDeterminism:
    def test_same_seed_runs_export_byte_identical_jsonl(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_traced_negotiation(first, seed=7)
        run_traced_negotiation(second, seed=7)
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0

    def test_different_seeds_differ_only_in_ids(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_traced_negotiation(first, seed=1)
        run_traced_negotiation(second, seed=2)
        assert first.read_bytes() != second.read_bytes()
        names = lambda p: [s.name for s in read_spans_jsonl(p)]  # noqa: E731
        assert names(first) == names(second)


class TestSpanTreeRenderer:
    def test_tree_nests_children_under_parents(self):
        spans = [
            Span("root", "t1", "s1", None, 0.0, end_s=3.0, sequence=1),
            Span("child-a", "t1", "s2", "s1", 0.0, end_s=1.0, sequence=2),
            Span("child-b", "t1", "s3", "s1", 1.0, end_s=3.0, sequence=3),
        ]
        text = render_span_tree(spans)
        assert "trace t1" in text
        assert "|-- child-a" in text
        assert "`-- child-b" in text

    def test_empty_and_orphan_inputs(self):
        assert render_span_tree([]) == "(no spans)"
        orphan = Span("x", "t1", "s2", "missing-parent", 0.0, end_s=1.0)
        # An unknown parent id degrades to a root, never a crash.
        assert "x" in render_span_tree([orphan])
