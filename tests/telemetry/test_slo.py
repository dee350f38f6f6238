"""SLO engine: spec validation, burn-rate alerting, budget accounting."""

import pytest

from repro.session.engine import EventLoop
from repro.telemetry import (
    BurnRatePolicy,
    EventSelector,
    FlightRecorder,
    SloSpec,
    Telemetry,
    default_slos,
    evaluate_slos,
)
from repro.util.clock import ManualClock
from repro.util.errors import TelemetryError

POLICIES = (
    BurnRatePolicy(long_s=10.0, short_s=2.0, threshold=4.0,
                   severity="page"),
)

RATIO = SloSpec(
    name="rollback-rate",
    description="rollbacks vs journal appends",
    objective=0.90,
    kind="ratio",
    bad=(EventSelector("commitment.rollbacks"),),
    total=(EventSelector("negotiation.offers.enumerated"),),
    policies=POLICIES,
)


def record(horizon, emit):
    """Drive ``emit(telemetry, t)`` once per second under a recorder."""
    clock = ManualClock()
    loop = EventLoop(clock)
    telemetry = Telemetry(clock=clock, seed=0)
    recorder = FlightRecorder(telemetry, interval_s=1.0)
    loop.every(1.0, lambda: emit(telemetry, clock.now()),
               until=horizon - 0.5)
    recorder.arm(loop, until=horizon)
    loop.run()
    recorder.finish(clock.now())
    return recorder


class TestSpecValidation:
    def test_selectors_must_name_catalog_counters(self):
        with pytest.raises(TelemetryError, match="not in the telemetry"):
            EventSelector("no.such.metric")
        with pytest.raises(TelemetryError, match="is a histogram"):
            EventSelector("negotiation.latency_s")
        with pytest.raises(TelemetryError, match="takes no label"):
            EventSelector("commitment.rollbacks", ("oops",))

    def test_ratio_slos_need_both_selector_sides(self):
        with pytest.raises(TelemetryError, match="bad and total"):
            SloSpec(name="half", description="", objective=0.9,
                    kind="ratio", bad=(EventSelector("commitment.rollbacks"),))

    def test_quantile_slos_need_a_catalog_histogram(self):
        with pytest.raises(TelemetryError, match="catalog"):
            SloSpec(name="q", description="", objective=0.9,
                    kind="quantile", metric="commitment.rollbacks")

    def test_burn_windows_must_nest(self):
        with pytest.raises(TelemetryError, match="short < long"):
            BurnRatePolicy(long_s=5.0, short_s=5.0, threshold=1.0)

    def test_default_slos_construct_and_cover_all_kinds(self):
        kinds = {spec.kind for spec in default_slos()}
        assert kinds == {"ratio", "quantile", "zero"}


class TestRatioEvaluation:
    def test_clean_run_spends_no_budget_and_fires_nothing(self):
        def emit(telemetry, now):
            telemetry.metrics.count("negotiation.offers.enumerated", 10.0)

        report = evaluate_slos(record(30, emit), (RATIO,))
        (result,) = report.results
        assert result.bad_events == 0.0
        assert result.budget_spent == 0.0
        assert result.alerts == ()
        assert not report.breached

    def test_sustained_burn_pages_after_a_full_long_window(self):
        def emit(telemetry, now):
            telemetry.metrics.count("negotiation.offers.enumerated", 10.0)
            if now >= 10.0:  # every event bad from t=10 on: burn 10x
                telemetry.metrics.count("commitment.rollbacks", 10.0)

        report = evaluate_slos(record(30, emit), (RATIO,))
        (result,) = report.results
        assert result.paged
        assert result.breached
        (alert,) = result.alerts
        assert alert.severity == "page"
        # Both windows must exceed threshold 4.0 simultaneously; the
        # long window fills with bad intervals by t=20.
        assert alert.long_burn >= 4.0
        assert alert.short_burn >= 4.0
        assert alert.fired_at_s <= 20.0

    def test_a_short_blip_does_not_page(self):
        def emit(telemetry, now):
            telemetry.metrics.count("negotiation.offers.enumerated", 10.0)
            if now == 5.0:  # one bad second in thirty
                telemetry.metrics.count("commitment.rollbacks", 10.0)

        report = evaluate_slos(record(30, emit), (RATIO,))
        (result,) = report.results
        assert result.alerts == ()
        # The blip still spent real budget: 10 bad / (0.1 * ~290).
        assert 0.0 < result.budget_spent < 1.0
        assert not result.breached

    def test_exhausted_budget_breaches_even_without_an_alert(self):
        slow = SloSpec(
            name="slow-burn",
            description="",
            objective=0.90,
            kind="ratio",
            bad=(EventSelector("commitment.rollbacks"),),
            total=(EventSelector("negotiation.offers.enumerated"),),
            policies=(),  # no alerting at all
        )

        def emit(telemetry, now):
            telemetry.metrics.count("negotiation.offers.enumerated", 10.0)
            telemetry.metrics.count("commitment.rollbacks", 2.0)

        report = evaluate_slos(record(30, emit), (slow,))
        (result,) = report.results
        assert result.alerts == ()
        assert result.budget_spent >= 1.0
        assert result.breached


class TestQuantileEvaluation:
    QUANTILE = SloSpec(
        name="latency",
        description="",
        objective=0.80,
        kind="quantile",
        metric="service.verdict.wait_s",
        quantile=0.99,
        threshold_s=5.0,
        policies=POLICIES,
    )

    def test_idle_intervals_are_good(self):
        report = evaluate_slos(record(20, lambda t, n: None),
                               (self.QUANTILE,))
        (result,) = report.results
        assert result.bad_events == 0.0
        assert not result.breached

    def test_slow_intervals_burn_and_page(self):
        def emit(telemetry, now):
            telemetry.metrics.observe("service.verdict.wait_s", 60.0)

        report = evaluate_slos(record(30, emit), (self.QUANTILE,))
        (result,) = report.results
        assert result.bad_events > 0
        assert result.paged


class TestZeroEvaluation:
    ZERO = SloSpec(
        name="leak-free",
        description="",
        objective=0.999,
        kind="zero",
        acquired=(EventSelector("network.flows.reserved"),),
        released=(EventSelector("network.flows.released"),),
        policies=(),
    )

    def test_balanced_counters_pass(self):
        def emit(telemetry, now):
            telemetry.metrics.count("network.flows.reserved")
            telemetry.metrics.count("network.flows.released")

        report = evaluate_slos(record(10, emit), (self.ZERO,))
        assert not report.breached

    def test_any_leak_exhausts_the_budget(self):
        def emit(telemetry, now):
            telemetry.metrics.count("network.flows.reserved")
            if now < 5.0:
                telemetry.metrics.count("network.flows.released")

        report = evaluate_slos(record(10, emit), (self.ZERO,))
        (result,) = report.results
        assert result.bad_events > 0
        assert result.breached

    def test_report_serializes_deterministically(self):
        def emit(telemetry, now):
            telemetry.metrics.count("network.flows.reserved")
            telemetry.metrics.count("network.flows.released")

        first = evaluate_slos(record(10, emit), (self.ZERO,))
        second = evaluate_slos(record(10, emit), (self.ZERO,))
        assert first.as_dict() == second.as_dict()
        assert "leak-free" in first.render()
