"""Flight recorder: sampling, derived rates, windows, canonical JSONL."""

import pytest

from repro.session.engine import EventLoop
from repro.telemetry import FlightRecorder, Telemetry, read_timeseries_jsonl
from repro.util.clock import ManualClock
from repro.util.errors import TelemetryError


def make_run(horizon=5):
    """A loop + hub where one counter/gauge/histogram tick per second."""
    clock = ManualClock()
    loop = EventLoop(clock)
    telemetry = Telemetry(clock=clock, seed=0)
    recorder = FlightRecorder(telemetry, interval_s=1.0)

    def emit():
        telemetry.metrics.count("commitment.rollbacks", 2.0)
        telemetry.metrics.count("storm.gate.decisions", decision="shed")
        telemetry.metrics.gauge_set("storm.queue.depth", float(clock.now()))
        telemetry.metrics.observe("service.verdict.wait_s", clock.now())

    loop.every(1.0, emit, until=horizon - 0.5)
    recorder.arm(loop, until=horizon)
    loop.run()
    recorder.finish(clock.now())
    return recorder, telemetry


class TestSampling:
    def test_one_baseline_plus_one_sample_per_interval(self):
        recorder, _ = make_run(horizon=5)
        assert recorder.tick_times() == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert recorder.samples == 6
        assert recorder.dropped == 0

    def test_finish_is_idempotent_per_instant(self):
        recorder, _ = make_run(horizon=3)
        before = recorder.samples
        recorder.finish(3.0)
        recorder.finish(3.0)
        assert recorder.samples == before

    def test_counter_series_is_cumulative_and_rate_is_per_interval(self):
        # The emitter stops at horizon - 0.5, so the final tick sees no
        # new events: the cumulative series plateaus, the rate drops
        # to zero.  The counter is born at t=1; its first interval
        # counts from zero at the preceding tick (t=0).
        recorder, _ = make_run(horizon=3)
        series = recorder.counter_series("commitment.rollbacks")
        assert series == ((1.0, 2.0), (2.0, 4.0), (3.0, 4.0))
        rates = recorder.counter_rate("commitment.rollbacks")
        assert rates == ((1.0, 2.0), (2.0, 2.0), (3.0, 0.0))

    def test_labelled_counters_need_their_label(self):
        recorder, _ = make_run(horizon=3)
        shed = recorder.counter_series("storm.gate.decisions", "shed")
        assert [value for _, value in shed] == [1.0, 2.0, 2.0]
        assert recorder.label_values("storm.gate.decisions") == ("shed",)
        assert recorder.counter_series("storm.gate.decisions") == ()

    def test_gauge_series_holds_the_last_set_value(self):
        recorder, _ = make_run(horizon=3)
        gauges = recorder.gauge_series("storm.queue.depth")
        assert gauges == ((1.0, 1.0), (2.0, 2.0), (3.0, 2.0))

    def test_quantile_series_is_cumulative(self):
        recorder, _ = make_run(horizon=4)
        quantiles = recorder.quantile_series("service.verdict.wait_s", 1.0)
        values = [value for _, value in quantiles]
        assert values == sorted(values)

    def test_window_histogram_is_a_delta(self):
        recorder, _ = make_run(horizon=4)
        window = recorder.window_histogram(
            "service.verdict.wait_s", 2.0, 4.0
        )
        # The emitter observed at t=1, 2, 3; only t=3 is in (2, 4].
        assert window.total == 1
        assert window.sum == pytest.approx(3.0)
        full = recorder.window_histogram(
            "service.verdict.wait_s", -1.0, 4.0
        )
        assert full.total == 3

    def test_non_catalog_names_are_rejected(self):
        recorder, _ = make_run(horizon=2)
        with pytest.raises(TelemetryError, match="not in the catalog"):
            recorder.counter_series("no.such.metric")
        with pytest.raises(TelemetryError, match="is a counter"):
            recorder.gauge_series("commitment.rollbacks")

    def test_ring_overflow_drops_oldest_and_counts_them(self):
        clock = ManualClock()
        loop = EventLoop(clock)
        telemetry = Telemetry(clock=clock, seed=0)
        recorder = FlightRecorder(telemetry, interval_s=1.0, capacity=4)
        recorder.arm(loop, until=10.0)
        loop.run()
        assert recorder.samples == 4
        assert recorder.tick_times() == (7.0, 8.0, 9.0, 10.0)
        assert recorder.dropped == 7  # baseline + t=1..6


class TestCanonicalExport:
    def test_jsonl_is_byte_identical_across_identical_runs(self):
        first, _ = make_run(horizon=4)
        second, _ = make_run(horizon=4)
        assert first.to_jsonl_lines() == second.to_jsonl_lines()

    def test_jsonl_round_trips_through_the_reader(self, tmp_path):
        recorder, _ = make_run(horizon=3)
        path = tmp_path / "ts.jsonl"
        lines = recorder.write_jsonl(path)
        dump = read_timeseries_jsonl(path)
        assert lines == 1 + len(dump.names())
        assert dump.header["samples"] == recorder.samples
        key = "counter:commitment.rollbacks"
        assert key in dump.names()
        assert dump.points(key) == list(
            recorder.counter_series("commitment.rollbacks")
        )

    def test_reader_rejects_foreign_schemas(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"something/else"}\n', encoding="utf-8")
        with pytest.raises(TelemetryError, match="schema"):
            read_timeseries_jsonl(path)
