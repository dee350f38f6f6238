"""Critical-path profiler: attribution, residuals, folded stacks."""

from repro.telemetry import (
    extract_critical_paths,
    folded_stacks,
    profile_spans,
    write_flamegraph,
)
from repro.telemetry.spans import Span


def span(name, trace, sid, parent, start, end, **attributes):
    return Span(name=name, trace_id=trace, span_id=sid,
                parent_id=parent, start_s=start, end_s=end,
                attributes=attributes)


def service_trace(trace="t1", label="req-1"):
    """A gated request: parked 4s, planned 1s, one rolled-back and one
    committed step-5 attempt, delivered at t=10."""
    return [
        span("service.negotiation", trace, "s0", None, 0.0, 10.0,
             label=label, status="CONFIRMED", overrun=False),
        span("service.gate.wait", trace, "s1", "s0", 0.0, 4.0,
             label=label),
        span("service.plan", trace, "s2", "s0", 4.0, 5.0, early=False),
        span("negotiation.step5.attempt", trace, "s3", "s0", 5.0, 7.0,
             offer="o-1", outcome="rolled-back"),
        span("negotiation.step5.attempt", trace, "s4", "s0", 7.0, 9.5,
             offer="o-2", outcome="committed"),
    ]


class TestExtraction:
    def test_service_trace_attributes_every_segment(self):
        (path,) = extract_critical_paths(service_trace())
        assert path.root == "service.negotiation"
        assert path.label == "req-1"
        assert path.total_s == 10.0
        assert path.segments["gate.wait"] == 4.0
        assert path.segments["plan"] == 1.0
        assert path.segments["step5.retry"] == 2.0
        assert path.segments["step5.commit"] == 2.5
        # 10 - 4 - 1 - 2 - 2.5 = 0.5 of unattributed scheduler time.
        assert path.segments["scheduler.other"] == 0.5

    def test_a_memo_skipped_attempt_is_walk_time_not_commit_time(self):
        spans = service_trace() + [
            span("negotiation.step5.attempt", "t1", "s5", "s0", 9.5, 9.75,
                 offer="o-3", outcome="memo-skip", server_id="server-a"),
        ]
        (path,) = extract_critical_paths(spans)
        assert path.segments["step5.retry"] == 2.25
        assert path.segments["step5.commit"] == 2.5

    def test_repeated_gate_waits_sum_without_exceeding_the_root(self):
        # An FTL re-park emits a second, disjoint gate.wait span.
        spans = service_trace() + [
            span("service.gate.wait", "t1", "s5", "s0", 9.5, 10.0,
                 label="req-1"),
        ]
        (path,) = extract_critical_paths(spans)
        assert path.segments["gate.wait"] == 4.5
        assert sum(path.segments.values()) <= path.total_s + 1e-9

    def test_residual_clamps_at_zero(self):
        spans = [
            span("service.negotiation", "t2", "r0", None, 0.0, 1.0,
                 label="req-2", status="CONFIRMED", overrun=False),
            span("service.plan", "t2", "r1", "r0", 0.0, 2.0, early=False),
        ]
        (path,) = extract_critical_paths(spans)
        assert path.segments["scheduler.other"] == 0.0

    def test_sync_traces_count_only_top_level_step_spans(self):
        spans = [
            span("negotiation", "t3", "n0", None, 0.0, 6.0, label="doc-1"),
            span("negotiation.step1.local", "t3", "n1", "n0", 0.0, 1.0),
            span("negotiation.step5.commit", "t3", "n2", "n0", 1.0, 5.0),
            # Nested attempt spans overlap their step-5 parent and must
            # not double-charge.
            span("negotiation.step5.attempt", "t3", "n3", "n2", 1.0, 4.0,
                 outcome="committed"),
        ]
        (path,) = extract_critical_paths(spans)
        assert path.root == "negotiation"
        assert path.segments["negotiation.step1.local"] == 1.0
        assert path.segments["negotiation.step5.commit"] == 4.0
        assert path.segments["scheduler.other"] == 1.0

    def test_traces_without_a_negotiation_root_are_skipped(self):
        spans = [span("service.plan", "t4", "x0", None, 0.0, 1.0)]
        assert extract_critical_paths(spans) == []

    def test_paths_sort_by_start_time(self):
        spans = (service_trace("t-late", "late")
                 + service_trace("t-early", "early"))
        for s in spans:
            if s.trace_id == "t-late":
                s.start_s += 100.0
                if s.end_s is not None:
                    s.end_s += 100.0
        labels = [p.label for p in extract_critical_paths(spans)]
        assert labels == ["early", "late"]


class TestAggregation:
    def test_profile_names_the_top_bottleneck(self):
        report = profile_spans(service_trace())
        assert report.paths == 1
        assert report.total_s == 10.0
        assert report.top_bottleneck == "gate.wait"
        assert report.share("gate.wait") == 0.4
        assert "top bottleneck" in report.render()

    def test_empty_input_yields_an_empty_report(self):
        report = profile_spans([])
        assert report.paths == 0
        assert report.top_bottleneck is None
        assert "no negotiation traces" in report.render()


class TestFoldedStacks:
    def test_stacks_are_integer_microseconds_sorted(self):
        paths = extract_critical_paths(service_trace())
        stacks = folded_stacks(paths)
        assert stacks == sorted(stacks)
        assert "service.negotiation;gate.wait 4000000" in stacks
        assert "service.negotiation;step5.commit 2500000" in stacks
        # Zero-weight segments are omitted entirely.
        assert not any("step5.abandoned" in line for line in stacks)

    def test_sections_prefix_and_file_is_byte_stable(self, tmp_path):
        paths = extract_critical_paths(service_trace())
        one, two = tmp_path / "a.folded", tmp_path / "b.folded"
        lines = write_flamegraph(one, {"x1": paths, "x2": paths})
        write_flamegraph(two, {"x2": paths, "x1": paths})
        assert one.read_bytes() == two.read_bytes()
        content = one.read_text(encoding="utf-8").splitlines()
        assert len(content) == lines
        assert content[0].startswith("x1;service.negotiation;")
