"""Metrics registry: catalog validation, histogram edges, snapshots."""

import json

import pytest

from repro.telemetry import (
    CATALOG,
    HistogramState,
    MetricKind,
    MetricSpec,
    MetricsRegistry,
    metric_names,
)
from repro.util.errors import TelemetryError


class TestCatalogValidation:
    def test_unknown_counter_name_raises(self):
        with pytest.raises(TelemetryError, match="not in the catalog"):
            MetricsRegistry().count("no.such.metric")

    def test_unknown_histogram_name_raises(self):
        with pytest.raises(TelemetryError, match="not in the catalog"):
            MetricsRegistry().observe("no.such.metric", 1.0)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="is a counter"):
            registry.observe("negotiation.outcomes", 1.0)
        with pytest.raises(TelemetryError, match="is a histogram"):
            registry.count("negotiation.latency_s")

    def test_label_discipline(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="requires the 'server'"):
            registry.count("breaker.opens")
        with pytest.raises(TelemetryError, match="takes no label"):
            registry.count("commitment.rollbacks", server="server-a")
        with pytest.raises(TelemetryError, match="at most one label"):
            registry.count("breaker.opens", server="a", extra="b")

    def test_label_keyword_must_be_the_declared_one(self, monkeypatch):
        # A typo'd keyword used to land silently under the right series.
        # (The shipped catalog has no labelled gauge; declare one here.)
        monkeypatch.setitem(CATALOG, "test.depth", MetricSpec(
            "test.depth", MetricKind.GAUGE, "items", "test", "server"
        ))
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="labelled by 'status'"):
            registry.count("negotiation.outcomes", stauts="SUCCEEDED")
        with pytest.raises(TelemetryError, match="labelled by 'status'"):
            registry.counter_value("negotiation.outcomes", stauts="SUCCEEDED")
        with pytest.raises(TelemetryError, match="labelled by 'server'"):
            registry.gauge_set("test.depth", 1.0, sever="server-a")
        with pytest.raises(TelemetryError, match="labelled by 'server'"):
            registry.gauge_add("test.depth", 1.0, sever="server-a")
        with pytest.raises(TelemetryError, match="labelled by 'server'"):
            registry.gauge_value("test.depth", sever="server-a")
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        assert registry.snapshot() == empty
        # ... also once the right keyword has been resolved and memoised.
        registry.count("negotiation.outcomes", status="SUCCEEDED")
        with pytest.raises(TelemetryError, match="labelled by 'status'"):
            registry.count("negotiation.outcomes", stauts="SUCCEEDED")
        assert registry.snapshot()["counters"] == {
            "negotiation.outcomes{status=SUCCEEDED}": 1.0
        }

    def test_every_catalog_name_is_in_the_rep011_allow_list(self):
        assert "negotiation.outcomes" in metric_names()
        assert "no.such.metric" not in metric_names()

    def test_disabled_registry_is_a_noop_even_for_bad_names(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("no.such.metric")  # must not raise
        registry.observe("also.not.real", 1.0)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestHistogramBucketEdges:
    def test_value_on_the_bound_lands_in_that_bucket(self):
        state = HistogramState((1.0, 2.0))
        state.observe(1.0)           # exactly on the first bound
        state.observe(1.0 + 1e-9)    # just past it
        state.observe(2.0)           # exactly on the last bound
        state.observe(2.5)           # past every bound
        assert state.counts == [1, 2]
        assert state.overflow == 1
        assert state.total == 4

    def test_registry_histograms_use_the_catalog_buckets(self):
        registry = MetricsRegistry()
        registry.observe("negotiation.attempts", 1.0)
        registry.observe("negotiation.attempts", 1.5)
        state = registry.histogram("negotiation.attempts")
        assert state.buckets == (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0)
        assert state.as_dict()["buckets"]["1"] == 1
        assert state.as_dict()["buckets"]["2"] == 1


class TestReading:
    def test_counter_total_sums_over_labels(self):
        registry = MetricsRegistry()
        registry.count("breaker.opens", server="server-a")
        registry.count("breaker.opens", 2.0, server="server-b")
        assert registry.counter_value("breaker.opens", server="server-a") == 1
        assert registry.counter_total("breaker.opens") == 3

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        registry.gauge_set("sessions.active", 2.0)
        registry.gauge_add("sessions.active", -1.0)
        assert registry.gauge_value("sessions.active") == 1.0

    def test_snapshot_serializes_deterministically(self):
        def build():
            registry = MetricsRegistry()
            registry.count("breaker.opens", server="server-b")
            registry.count("breaker.opens", server="server-a")
            registry.observe("negotiation.latency_s", 0.25)
            registry.gauge_set("sessions.active", 1.0)
            return registry

        assert build().to_json() == build().to_json()
        decoded = json.loads(build().to_json())
        assert list(decoded["counters"]) == [
            "breaker.opens{server=server-a}",
            "breaker.opens{server=server-b}",
        ]

    def test_render_and_reset(self):
        registry = MetricsRegistry()
        assert "none recorded" in registry.render()
        registry.count("negotiation.offers.enumerated", 64.0)
        assert "negotiation.offers.enumerated" in registry.render()
        registry.reset()
        assert "none recorded" in registry.render()
