"""Property tests for histogram edges and metric-key round-tripping.

The flight recorder serializes histogram states and flat metric keys
into its canonical JSONL, so both must be exact inverses of their
builders: boundary samples land in the bucket whose upper bound they
equal, quantiles are monotone and clamped to the bucket range, and
``parse_metric_key`` inverts ``format_metric_key`` for every label
value a caller can emit (including values containing ``=``/``{``/``}``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import HistogramState, MetricKind, MetricsRegistry
from repro.telemetry.catalog import CATALOG
from repro.telemetry.metrics import format_metric_key, parse_metric_key
from repro.util.errors import TelemetryError

bucket_sets = st.lists(
    st.floats(min_value=0.001, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8, unique=True,
).map(lambda bounds: tuple(sorted(bounds)))

samples = st.lists(
    st.floats(min_value=0.0, max_value=2000.0,
              allow_nan=False, allow_infinity=False),
    max_size=60,
)

LABELLED = sorted(
    name for name, spec in CATALOG.items() if spec.label is not None
)
UNLABELLED = sorted(
    name for name, spec in CATALOG.items() if spec.label is None
)


class TestHistogramProperties:
    @given(bucket_sets, samples)
    @settings(max_examples=80, deadline=None)
    def test_counts_conserve_every_observation(self, buckets, values):
        state = HistogramState(buckets)
        for value in values:
            state.observe(value)
        assert sum(state.counts) + state.overflow == len(values)
        assert state.total == len(values)
        assert state.sum == pytest.approx(sum(values))

    @given(bucket_sets)
    @settings(max_examples=50, deadline=None)
    def test_boundary_samples_land_in_their_bucket_not_overflow(
        self, buckets
    ):
        state = HistogramState(buckets)
        for bound in buckets:
            state.observe(bound)
        assert state.overflow == 0
        assert state.counts == [1] * len(buckets)

    @given(bucket_sets, samples,
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_quantile_is_monotone_and_clamped(self, buckets, values, a, b):
        state = HistogramState(buckets)
        for value in values:
            state.observe(value)
        low, high = min(a, b), max(a, b)
        assert state.quantile(low) <= state.quantile(high) + 1e-12
        for q in (0.0, low, high, 1.0):
            assert 0.0 <= state.quantile(q) <= buckets[-1]

    @given(bucket_sets, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_empty_histogram_quantile_is_zero(self, buckets, q):
        assert HistogramState(buckets).quantile(q) == 0.0

    @given(bucket_sets)
    @settings(max_examples=20, deadline=None)
    def test_overflow_rank_clamps_to_the_highest_bound(self, buckets):
        state = HistogramState(buckets)
        state.observe(buckets[-1] * 2 + 1.0)
        assert state.quantile(1.0) == buckets[-1]

    def test_quantile_rejects_ranks_outside_the_unit_interval(self):
        state = HistogramState((1.0, 5.0))
        state.observe(0.5)
        for q in (-0.1, 1.1):
            with pytest.raises(TelemetryError, match="quantile"):
                state.quantile(q)


class TestMetricKeyRoundTrip:
    @given(st.sampled_from(LABELLED), st.text(max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_labelled_keys_round_trip_any_label_value(self, name, value):
        key = format_metric_key(name, value)
        assert parse_metric_key(key) == (name, value)

    @given(st.sampled_from(UNLABELLED))
    @settings(max_examples=30, deadline=None)
    def test_unlabelled_keys_round_trip(self, name):
        assert parse_metric_key(format_metric_key(name, None)) == (
            name, None
        )

    @given(st.sampled_from(LABELLED), st.text(max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_labelled_keys_never_collide_with_catalog_names(
        self, name, value
    ):
        # A flat labelled key must not be mistakable for the bare key
        # of any catalog metric (catalog names contain no braces).
        key = format_metric_key(name, value)
        assert key not in CATALOG

    def test_malformed_keys_raise(self):
        for key in ("name{server=a", "name{nolabel}"):
            with pytest.raises(TelemetryError, match="malformed"):
                parse_metric_key(key)


class ReferenceRegistry:
    """The registry with no memo: every emission is validated against
    the catalog and its flat key formatted from scratch, as shipped
    before resolution was memoised (plus the label-keyword check)."""

    def __init__(self):
        self.counters, self.gauges, self.histograms = {}, {}, {}

    @staticmethod
    def key(name, kind, labels):
        spec = CATALOG.get(name)
        if spec is None or spec.kind is not kind or len(labels) > 1:
            raise TelemetryError(name)
        if (spec.label is None) != (not labels):
            raise TelemetryError(name)
        if not labels:
            return name
        if spec.label not in labels:
            raise TelemetryError(name)
        return f"{name}{{{spec.label}={labels[spec.label]!s}}}"

    def count(self, name, amount, **labels):
        key = self.key(name, MetricKind.COUNTER, labels)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def gauge_set(self, name, value, **labels):
        self.gauges[self.key(name, MetricKind.GAUGE, labels)] = value

    def gauge_add(self, name, delta, **labels):
        key = self.key(name, MetricKind.GAUGE, labels)
        self.gauges[key] = self.gauges.get(key, 0.0) + delta

    def observe(self, name, value):
        self.key(name, MetricKind.HISTOGRAM, {})
        if name not in self.histograms:
            self.histograms[name] = HistogramState(CATALOG[name].buckets)
        self.histograms[name].observe(value)

    def to_json(self):
        return json.dumps({
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": {
                name: state.as_dict()
                for name, state in self.histograms.items()
            },
        }, sort_keys=True, separators=(",", ":"))


# Few names and few label values, so sequences revisit (and re-resolve)
# the same series.  Four emissions in five are well-formed (the method
# fits the kind, the keyword is the declared one); the rest pick the
# method, a wrong or surplus keyword or a bogus name at random.  Label
# values include non-strings whose hashes collide (1 == True == 1.0).
NAMES = [
    "negotiation.outcomes", "negotiation.offers.dropped",
    "commitment.rollbacks", "service.inflight", "negotiation.attempts",
]
METHODS = {
    MetricKind.COUNTER: ["count"],
    MetricKind.GAUGE: ["gauge_set", "gauge_add"],
    MetricKind.HISTOGRAM: ["observe"],
}
VALUES = st.sampled_from(["a", "1", "", 1, True, 1.0, None])
AMOUNTS = st.floats(min_value=0.0, max_value=16.0, allow_nan=False)


@st.composite
def emissions(draw):
    name = draw(st.sampled_from(NAMES))
    spec = CATALOG[name]
    if draw(st.integers(0, 4)):
        method = draw(st.sampled_from(METHODS[spec.kind]))
        labels = {} if spec.label is None else {spec.label: draw(VALUES)}
    else:
        name = draw(st.sampled_from(NAMES + ["no.such.metric"]))
        method = draw(st.sampled_from(sum(METHODS.values(), [])))
        labels = draw(st.dictionaries(
            st.sampled_from(["status", "step", "stauts"]), VALUES,
            max_size=2,
        ))
    if method == "observe":
        labels = {}
    return method, name, draw(AMOUNTS), labels


class TestMemoisedResolutionIsInvisible:
    @given(st.lists(emissions(), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_any_emission_sequence_matches_the_memoless_reference(
        self, sequence
    ):
        registry, reference = MetricsRegistry(), ReferenceRegistry()
        for method, name, value, labels in sequence:
            outcomes = []
            for target in (registry, reference):
                try:
                    getattr(target, method)(name, value, **labels)
                    outcomes.append("ok")
                except TelemetryError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1], (method, name, labels)
        assert registry.to_json() == reference.to_json()
        assert registry.snapshot() == json.loads(reference.to_json())
