"""NegotiationReport + journal reconciliation from real traces."""

import pytest

from repro.client.machine import ClientMachine
from repro.core import standard_profiles
from repro.journal import ReservationJournal
from repro.sim import ScenarioSpec, build_scenario
from repro.telemetry import (
    InMemorySpanExporter,
    NegotiationReport,
    Telemetry,
    reconcile_journal,
)
from repro.util.clock import ManualClock
from tests.core.test_stream import DEAREST_CENTS, WALK_FLAVOURS, occupy
from tests.properties.strategies import (
    GRID_FLAVOURS,
    grid_document,
    grid_manager,
    grid_profile,
)


@pytest.fixture
def traced_run():
    """One confirmed-and-released negotiation with full telemetry."""
    journal = ReservationJournal()
    scenario = build_scenario(
        ScenarioSpec(document_count=2), journal=journal, telemetry_seed=5
    )
    exporter = InMemorySpanExporter()
    scenario.telemetry.tracer.add_exporter(exporter)
    profile = next(p for p in standard_profiles() if p.name == "balanced")
    result = scenario.manager.negotiate(
        scenario.document_ids()[0], profile, scenario.any_client()
    )
    assert result.commitment is not None
    result.commitment.confirm(scenario.clock.now())
    result.commitment.release()
    return scenario, exporter, result


class TestNegotiationReport:
    def test_report_covers_all_six_steps(self, traced_run):
        _, exporter, _ = traced_run
        report = NegotiationReport.from_spans(exporter.spans)
        assert [s.step for s in report.steps] == [1, 2, 3, 4, 5, 6]
        assert all(s.ran for s in report.steps)
        assert report.status == "SUCCEEDED"

    def test_step2_records_drop_accounting(self, traced_run):
        _, exporter, _ = traced_run
        report = NegotiationReport.from_spans(exporter.spans)
        step2 = report.steps[1]
        assert step2.offers_in is not None and step2.offers_out is not None
        assert step2.dropped == step2.offers_in - step2.offers_out
        assert sum(step2.drop_reasons.values()) == step2.dropped

    def test_attempts_are_listed(self, traced_run):
        _, exporter, _ = traced_run
        report = NegotiationReport.from_spans(exporter.spans)
        assert report.attempts
        assert report.attempts[-1].outcome == "committed"

    def test_as_dict_and_render_agree_on_the_steps(self, traced_run):
        _, exporter, _ = traced_run
        report = NegotiationReport.from_spans(exporter.spans)
        data = report.as_dict()
        assert [s["step"] for s in data["steps"]] == [1, 2, 3, 4, 5, 6]
        text = report.render()
        assert "step 6 user confirmation" in text
        assert "(not reached)" not in text

    def test_unreached_steps_render_as_such(self):
        report = NegotiationReport.from_spans([])
        assert not any(s.ran for s in report.steps)
        assert "(not reached)" in report.render()


class TestReconcileJournal:
    def test_full_lifecycle_reconciles_with_the_metrics(self, traced_run):
        scenario, _, _ = traced_run
        journal = scenario.manager.committer.journal
        audit = reconcile_journal(journal, scenario.telemetry.metrics)
        assert audit["balanced"]
        assert audit["open_holders"] == []
        assert audit["metrics_match"]
        assert audit["records"] == len(journal)
        assert audit["reserved_holders"] == audit["closed_holders"] == 1

    def test_an_open_holder_unbalances_the_audit(self):
        journal = ReservationJournal()
        scenario = build_scenario(
            ScenarioSpec(document_count=1), journal=journal, telemetry_seed=5
        )
        profile = next(
            p for p in standard_profiles() if p.name == "balanced"
        )
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], profile, scenario.any_client()
        )
        assert result.commitment is not None  # reserved, never resolved
        audit = reconcile_journal(journal, scenario.telemetry.metrics)
        assert not audit["balanced"]
        assert audit["open_holders"] == [result.commitment.bundle.holder]
        assert audit["metrics_match"]  # the counters still agree


class TestMemoSkips:
    """An attempt the walk's refusal memo answered stays explainable:
    its span says so and names the server that had refused, it is still
    a dropped offer, and its counter adds up to the results' own."""

    @pytest.fixture
    def contended(self):
        clock = ManualClock()
        exporter = InMemorySpanExporter()
        telemetry = Telemetry(clock=clock, seed=5)
        telemetry.tracer.add_exporter(exporter)
        manager = grid_manager(
            [grid_document([WALK_FLAVOURS] * 3)], (1, 1, 6),
            clock=clock, telemetry=telemetry,
        )
        occupy(manager, "server-a")
        occupy(manager, "server-b")
        profile = grid_profile(
            GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS
        )
        client = ClientMachine("walker", access_point="client-net")
        results = [
            manager.negotiate("doc.grid", profile, client) for _ in range(3)
        ]
        return telemetry, exporter, results

    def test_span_carries_the_outcome_and_the_refusing_server(
        self, contended
    ):
        _, exporter, results = contended
        attempts = [
            s for s in exporter.spans
            if s.name == "negotiation.step5.attempt"
        ]
        skipped = [
            s for s in attempts if s.attributes["outcome"] == "memo-skip"
        ]
        assert len(attempts) == sum(r.attempts for r in results)
        assert len(skipped) == sum(r.memo_skips for r in results) > 0
        for span in skipped:
            assert span.attributes["server_id"] in span.attributes["servers"]
            assert "refusal" not in span.attributes   # nobody was asked
        # The refusal the memo repeats was seen, and traced, first.
        first = attempts.index(skipped[0])
        assert any(
            s.attributes.get("refusal") == "AdmissionError"
            for s in attempts[:first]
        )

    def test_counters_reconcile_with_the_results(self, contended):
        telemetry, _, results = contended
        metrics = telemetry.metrics
        skips = sum(r.memo_skips for r in results)
        failed = sum(
            r.attempts - (r.commitment is not None) for r in results
        )
        assert metrics.counter_value("commitment.memo_skips") == skips
        # A memo skip is still an offer step 5 dropped, but nothing was
        # taken for it, so it is not a rollback.
        assert metrics.counter_value(
            "negotiation.offers.dropped", step="5"
        ) == failed
        assert metrics.counter_value("commitment.rollbacks") == failed - skips

    def test_report_lists_the_skip_and_who_had_refused(self, contended):
        _, exporter, results = contended
        first = next(s for s in exporter.spans if s.name == "negotiation")
        report = NegotiationReport.from_spans(sorted(
            (s for s in exporter.spans if s.trace_id == first.trace_id),
            key=lambda s: s.sequence,
        ))
        skipped = [a for a in report.attempts if a.outcome == "memo-skip"]
        assert len(skipped) == results[0].memo_skips > 0
        assert all(a.refused_by and a.refusal is None for a in skipped)
        assert report.attempts[-1].outcome == "committed"
        assert report.attempts[-1].refused_by is None
        assert "outcome=memo-skip" in report.render()
        assert f"refused_by={skipped[0].refused_by}" in report.render()
        listed = report.as_dict()["attempts"]
        assert [a["refused_by"] for a in listed] == [
            a.refused_by for a in report.attempts
        ]
