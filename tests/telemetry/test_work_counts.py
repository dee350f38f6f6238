"""What the armed hub does per emission, counted — no clock is read.

The hot path of an instrumented deployment is ~20 spans and ~40
counter increments per verdict.  These tests bound the work behind
them by counting calls: span ids are drawn from the generator in
blocks, a ``(name, label)`` pair is validated against the catalog
once, and the flight recorder never copies a ring to look at its
newest tick.  Every check the slow path made is still made: an
emission the catalog rejects raises on the hundredth call exactly as
on the first.
"""

import math

import pytest

from repro.telemetry import FlightRecorder, MetricsRegistry, Telemetry, Tracer
from repro.telemetry import tracer as tracer_module
from repro.telemetry.timeseries import _Ring
from repro.util.clock import ManualClock
from repro.util.errors import TelemetryError
from repro.util.rng import make_rng


class CountingGenerator:
    """Stands in for the tracer's private generator; counts draws."""

    def __init__(self, seed):
        self._rng = make_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


@pytest.fixture
def spec_calls(monkeypatch):
    """Catalog validations run by any registry, as a one-item list."""
    calls = [0]
    original = MetricsRegistry._spec

    def counting(name, kind):
        calls[0] += 1
        return original(name, kind)

    monkeypatch.setattr(MetricsRegistry, "_spec", staticmethod(counting))
    return calls


class TestSpanIds:
    @pytest.mark.parametrize("ids", [1, 1024, 1025, 5000])
    def test_n_ids_cost_at_most_n_over_pool_plus_one_draws(self, ids):
        tracer = Tracer(clock=ManualClock(), seed=5)
        tracer._rng = generator = CountingGenerator(5)
        drawn = 0
        while drawn < ids:
            tracer.emit("orphan", start_s=0.0, end_s=0.0)  # two ids
            with tracer.span("root"):                      # two more
                pass
            drawn += 4
        assert generator.calls <= math.ceil(drawn / tracer_module._ID_POOL) + 1

    def test_the_caller_s_generator_is_refused(self):
        shared = make_rng(3)
        before = shared.bit_generator.state
        with pytest.raises(TelemetryError, match="must be an int"):
            Tracer(clock=ManualClock(), seed=shared)
        with pytest.raises(TelemetryError, match="must be an int"):
            Telemetry(clock=ManualClock(), seed=shared)
        assert shared.bit_generator.state == before  # not a number drawn


class TestCounterResolution:
    def test_n_increments_of_one_series_validate_once(self, spec_calls):
        registry = MetricsRegistry()
        for _ in range(500):
            registry.count("negotiation.outcomes", status="SUCCEEDED")
            registry.count("commitment.rollbacks")
            registry.gauge_set("service.inflight", 3.0)
            registry.gauge_add("sessions.active", 1.0)
            registry.observe("negotiation.attempts", 2.0)
        assert spec_calls[0] == 5
        assert registry.counter_value(
            "negotiation.outcomes", status="SUCCEEDED"
        ) == 500
        assert spec_calls[0] == 5  # reads share the writers' resolution

    def test_each_label_value_is_its_own_resolution(self, spec_calls):
        registry = MetricsRegistry()
        for _ in range(50):
            for status in ("SUCCEEDED", "FAILEDTRYLATER", "FAILEDWITHOFFER"):
                registry.count("negotiation.outcomes", status=status)
        assert spec_calls[0] == 3

    @pytest.mark.parametrize("emit", [
        lambda r: r.count("no.such.metric"),
        lambda r: r.count("negotiation.latency_s"),            # a histogram
        lambda r: r.count("negotiation.outcomes"),             # label missing
        lambda r: r.count("negotiation.outcomes", stauts="X"),  # keyword typo
        lambda r: r.count("commitment.rollbacks", server="a"),  # takes none
        lambda r: r.count("breaker.opens", server="a", extra="b"),
        lambda r: r.gauge_set("negotiation.outcomes", 1.0),    # a counter
        lambda r: r.observe("negotiation.outcomes", 1.0),
    ])
    def test_an_invalid_emission_raises_on_every_call(self, emit):
        registry = MetricsRegistry()
        registry.count("negotiation.outcomes", status="X")  # warm the memo
        for _ in range(100):
            with pytest.raises(TelemetryError):
                emit(registry)
        assert registry.snapshot()["counters"] == {
            "negotiation.outcomes{status=X}": 1.0
        }
        assert registry.snapshot()["gauges"] == {}
        assert registry.snapshot()["histograms"] == {}

    def test_equal_hashing_label_values_keep_their_own_series(self):
        # 1 == True == 1.0 and all three hash alike; a memo keyed on the
        # raw value would file every one under whichever came first.
        registry = MetricsRegistry()
        for value in (1, True, 1.0, "1"):
            registry.count("negotiation.offers.dropped", step=value)
            registry.count("negotiation.offers.dropped", step=value)
        assert registry.snapshot()["counters"] == {
            "negotiation.offers.dropped{step=1.0}": 2.0,
            "negotiation.offers.dropped{step=1}": 4.0,
            "negotiation.offers.dropped{step=True}": 2.0,
        }


class TestRecorderScrape:
    def test_ring_last_is_the_newest_item_before_and_after_wrapping(self):
        ring = _Ring(3)
        for item in range(8):
            ring.append(item)
            assert ring.last() == item == ring.items()[-1]

    def test_sampling_copies_no_ring_and_renders_no_snapshot(
        self, monkeypatch
    ):
        telemetry = Telemetry(clock=ManualClock(), seed=0)
        telemetry.count("negotiation.outcomes", status="SUCCEEDED")
        telemetry.metrics.gauge_set("service.inflight", 2.0)
        telemetry.observe("negotiation.attempts", 1.0)
        recorder = FlightRecorder(telemetry, interval_s=1.0, capacity=4)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the scrape took the export path")

        with monkeypatch.context() as patch:
            patch.setattr(_Ring, "items", forbidden)
            patch.setattr(MetricsRegistry, "snapshot", forbidden)
            for tick in range(10):  # wraps the 4-slot rings twice
                recorder.sample(float(tick))
                recorder.sample(float(tick))  # same instant: dropped
        assert recorder.samples == 4
        assert recorder.tick_times() == (6.0, 7.0, 8.0, 9.0)
        assert recorder.series_names() == (
            "counter:negotiation.outcomes{status=SUCCEEDED}",
            "gauge:service.inflight",
            "hist:negotiation.attempts",
        )
