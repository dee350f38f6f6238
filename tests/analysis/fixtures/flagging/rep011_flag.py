"""REP011 fixture (flagged): unregistered metric names on the write
side (emission), the read side (series queries), and in SLO
declarations."""

from repro.telemetry import EventSelector, SloSpec


def measure(telemetry):
    telemetry.count("negotiation.bogus.counter")
    telemetry.metrics.observe("not.in.the.catalog", 1.0)


def dashboard(recorder):
    series = recorder.counter_series("no.such.counter")
    rates = recorder.counter_rate("also.not.registered")
    tail = recorder.quantile_series("missing.histogram", 0.99)
    return series, rates, tail


def objectives():
    return SloSpec(
        name="typo-latency",
        description="reads an empty series forever",
        objective=0.9,
        kind="quantile",
        metric="service.verdict.wait_seconds",
        bad=(EventSelector("negotiation.outcomez"),),
    )
