"""Acceptance: chaos-run telemetry reconciles with the ground truth.

The metrics registry and the trace are a *second witness* to what the
chaos runner already reports from its own bookkeeping; this suite
cross-examines the two.  Every counter asserted here has an independent
source of truth — the journal, the breaker, the committer stats — so a
drifting instrument fails loudly.
"""

import json
from dataclasses import replace

import pytest

from repro.faults import FaultPlan, RetryPolicy, parse_fault_spec
from repro.sim import ChaosSpec, ScenarioSpec, run_chaos
from repro.telemetry import reconcile_journal


def telemetry_spec(seed=1, telemetry_jsonl=None):
    return ChaosSpec(
        scenario=ScenarioSpec(server_count=3),
        plan=FaultPlan(
            (
                parse_fault_spec("crash:server-a:2:20"),
                parse_fault_spec("flap:L-client-1:30:15"),
            ),
            seed=seed,
        ),
        seed=seed,
        requests=4,
        request_spacing_s=5.0,
        retry=RetryPolicy(max_attempts=3),
        lease_ttl_s=120.0,
        telemetry_seed=seed,
        telemetry_jsonl=telemetry_jsonl,
    )


@pytest.fixture(scope="module")
def run():
    return run_chaos(telemetry_spec())


class TestMetricsReconcile:
    def test_journal_counters_match_the_journal(self, run):
        report, scenario = run
        journal = scenario.manager.committer.journal
        audit = reconcile_journal(journal, scenario.telemetry.metrics)
        assert audit["balanced"], audit["open_holders"]
        assert audit["metrics_match"]
        assert audit["records"] == len(journal) == report.journal_records

    def test_zero_leaks_and_zero_open_holders_agree(self, run):
        report, scenario = run
        audit = reconcile_journal(scenario.manager.committer.journal)
        assert report.clean_teardown
        assert audit["open_holders"] == []

    def test_breaker_counters_match_the_breaker(self, run):
        report, scenario = run
        metrics = scenario.telemetry.metrics
        assert metrics.counter_total("breaker.opens") == report.breaker_opens
        assert metrics.counter_value("breaker.skips") == report.breaker_skips

    def test_admission_counters_match_the_committer_stats(self, run):
        report, scenario = run
        metrics = scenario.telemetry.metrics
        assert metrics.counter_total("admission.retries") == report.retries
        assert (
            metrics.counter_value("leases.reaped") == report.leases_reaped
        )

    def test_negotiation_outcomes_match_the_status_mix(self, run):
        report, scenario = run
        metrics = scenario.telemetry.metrics
        for status, count in report.statuses.items():
            assert metrics.counter_value(
                "negotiation.outcomes", status=status
            ) == count
        assert (
            metrics.counter_total("negotiation.outcomes")
            == report.negotiations
        )

    def test_stream_ledger_counters_balance(self, run):
        _, scenario = run
        metrics = scenario.telemetry.metrics
        assert metrics.counter_total(
            "server.streams.reserved"
        ) == metrics.counter_total("server.streams.released")
        assert metrics.counter_value(
            "network.flows.reserved"
        ) == metrics.counter_value("network.flows.released")


class TestTraceArtifact:
    def test_chaos_trace_exports_and_replays_deterministically(
        self, tmp_path
    ):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_chaos(telemetry_spec(telemetry_jsonl=str(first)))
        run_chaos(telemetry_spec(telemetry_jsonl=str(second)))
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text("utf-8").splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert "negotiation" in names
        assert "negotiation.step5.attempt" in names
        assert "breaker.transition" in names

    def test_telemetry_does_not_change_the_chaos_outcome(self, run):
        report, _ = run
        plain_report, _ = run_chaos(
            ChaosSpec(
                scenario=ScenarioSpec(server_count=3),
                plan=FaultPlan(
                    (
                        parse_fault_spec("crash:server-a:2:20"),
                        parse_fault_spec("flap:L-client-1:30:15"),
                    ),
                    seed=1,
                ),
                seed=1,
                requests=4,
                request_spacing_s=5.0,
                retry=RetryPolicy(max_attempts=3),
                lease_ttl_s=120.0,
            )
        )
        # The flight-recorder timeline IS telemetry output — present
        # exactly when telemetry is on.  Outcome equality is
        # everything else.
        assert plain_report.timeline == {}
        assert report.timeline
        assert plain_report == replace(report, timeline={})
