"""REP011 fixture (clean): catalog metric names on the write side, the
read side, and in SLO declarations."""

from repro.telemetry import EventSelector, SloSpec
from repro.util.clock import ManualClock


def measure(telemetry, clock: ManualClock) -> float:
    started = clock.now()
    telemetry.count("negotiation.offers.enumerated", 1.0)
    telemetry.metrics.observe("negotiation.latency_s", clock.now() - started)
    return clock.now() - started


def dashboard(recorder):
    series = recorder.counter_series("negotiation.outcomes", "CONFIRMED")
    rates = recorder.counter_rate("commitment.rollbacks")
    tail = recorder.quantile_series("service.verdict.wait_s", 0.99)
    return series, rates, tail


def objectives():
    return SloSpec(
        name="verdict-latency",
        description="p99 verdict wait within budget",
        objective=0.9,
        kind="quantile",
        metric="service.verdict.wait_s",
        bad=(EventSelector("negotiation.outcomes"),),
    )
