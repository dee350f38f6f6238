"""The metrics registry: counters, gauges, fixed-bucket histograms.

Instruments live in the catalog (:mod:`repro.telemetry.catalog`); the
registry validates every emission against it, so an unregistered name
or a kind mismatch raises :class:`~repro.util.errors.TelemetryError`
instead of forking a silent time series.  Snapshots are plain dicts
with flat ``name{label=value}`` keys, rendered deterministically
(sorted) so two same-seed runs serialize byte-identically.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterator

from ..util.errors import TelemetryError
from ..util.tables import render_table
from .catalog import CATALOG, MetricKind, MetricSpec

__all__ = [
    "HistogramState",
    "MetricsRegistry",
    "format_metric_key",
    "parse_metric_key",
]


def format_metric_key(name: str, label_value: "str | None") -> str:
    """Flat snapshot key: ``name`` or ``name{label=value}``."""
    if label_value is None:
        return name
    spec = CATALOG[name]
    return f"{name}{{{spec.label}={label_value}}}"


def parse_metric_key(key: str) -> "tuple[str, str | None]":
    """Invert :func:`format_metric_key`: ``(name, label_value)``.

    Catalog names never contain ``{``, so the first brace splits name
    from label unambiguously — a labelled key can never collide with an
    unlabelled key of another metric.  The label *value* may contain
    ``=``, ``{`` or ``}``; only the first ``=`` inside the braces and
    the final ``}`` are structural.
    """
    brace = key.find("{")
    if brace < 0:
        return key, None
    if not key.endswith("}"):
        raise TelemetryError(f"malformed metric key {key!r}")
    inner = key[brace + 1:-1]
    _label, sep, value = inner.partition("=")
    if not sep:
        raise TelemetryError(f"malformed metric key {key!r}")
    return key[:brace], value


class HistogramState:
    """Fixed-bucket histogram: counts per upper bound + overflow."""

    __slots__ = ("buckets", "counts", "overflow", "total", "sum")

    def __init__(self, buckets: "tuple[float, ...]") -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        # First bucket whose bound is >= value; NaN compares below no
        # bound, so it overflows.
        index = bisect_left(self.buckets, value)
        if index < len(self.counts) and value == value:
            self.counts[index] += 1
        else:
            self.overflow += 1

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate from the fixed buckets.

        Linear interpolation within the bucket that holds the q-rank;
        an empty histogram answers ``0.0`` and any rank that lands in
        the overflow region clamps to the highest bound (the histogram
        cannot know more than its buckets).  Monotone in ``q`` and a
        pure function of the counts, so same-seed runs serialize the
        same estimates byte-for-byte.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q!r}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            count = self.counts[index]
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if rank <= cumulative:
                lower = self.buckets[index - 1] if index > 0 else bound
                fraction = (rank - previous) / count
                # min() guards the last float rounding step: lower +
                # (bound - lower) can land one ulp above bound.
                return min(bound, lower + (bound - lower) * min(1.0, fraction))
        return self.buckets[-1] if self.buckets else 0.0

    def as_dict(self) -> "dict[str, Any]":
        data: "dict[str, Any]" = {
            "buckets": {
                f"{bound:g}": count
                for bound, count in zip(self.buckets, self.counts)
            },
            "overflow": self.overflow,
            "count": self.total,
            "sum": self.sum,
        }
        return data


class _KeyMemo(dict[tuple[Any, ...], str]):
    """``(name, (label keyword, label value))`` -> validated flat key,
    for one metric kind.  A miss validates the emission against the
    catalog; only successes are stored, so an emission the catalog
    rejects raises on every call, not just the first."""

    def __init__(self, kind: MetricKind) -> None:
        super().__init__()
        self.kind = kind

    def __missing__(self, memo_key: "tuple[Any, ...]") -> str:
        name, *labels = memo_key
        spec = MetricsRegistry._spec(name, self.kind)
        if len(labels) > 1:
            raise TelemetryError(
                "at most one label per metric, got "
                f"{sorted(keyword for keyword, _ in labels)}"
            )
        if not labels:
            if spec.label is not None:
                raise TelemetryError(
                    f"metric {name!r} requires the {spec.label!r} label"
                )
            self[memo_key] = name
            return name
        (keyword, value), = labels
        if spec.label is None:
            raise TelemetryError(
                f"metric {name!r} takes no label, got {keyword!r}"
            )
        if keyword != spec.label:
            raise TelemetryError(
                f"metric {name!r} is labelled by {spec.label!r}, "
                f"not {keyword!r}"
            )
        key = format_metric_key(name, str(value))
        # 1, True and 1.0 hash alike but format differently: only an
        # exact str stands for its own formatting in the memo.
        if type(value) is str:
            self[memo_key] = key
        return key


class MetricsRegistry:
    """Catalog-validated counters, gauges and histograms.

    A disabled registry (``enabled=False``) accepts every emission as a
    no-op — the shared hub handed to uninstrumented deployments.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: "dict[str, float]" = {}
        self._gauges: "dict[str, float]" = {}
        self._histograms: "dict[str, HistogramState]" = {}
        self._counter_keys = _KeyMemo(MetricKind.COUNTER)
        self._gauge_keys = _KeyMemo(MetricKind.GAUGE)

    # -- validation ----------------------------------------------------------------

    @staticmethod
    def _spec(name: str, kind: MetricKind) -> MetricSpec:
        spec = CATALOG.get(name)
        if spec is None:
            raise TelemetryError(
                f"metric {name!r} is not in the catalog; declare it in "
                "repro.telemetry.catalog first"
            )
        if spec.kind is not kind:
            raise TelemetryError(
                f"metric {name!r} is a {spec.kind.value}, not a {kind.value}"
            )
        return spec

    # -- emission ------------------------------------------------------------------

    def count(
        self, name: str, amount: float = 1.0, **labels: str
    ) -> None:
        """Increment a counter (``labels`` is the single declared label,
        e.g. ``count("breaker.opens", server="server-a")``)."""
        if not self.enabled:
            return
        key = self._counter_keys[(name, *labels.items())]
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        key = self._gauge_keys[(name, *labels.items())]
        self._gauges[key] = value

    def gauge_add(self, name: str, delta: float, **labels: str) -> None:
        if not self.enabled:
            return
        key = self._gauge_keys[(name, *labels.items())]
        self._gauges[key] = self._gauges.get(key, 0.0) + delta

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        state = self._histograms.get(name)
        if state is None:  # a live state implies a validated name
            spec = self._spec(name, MetricKind.HISTOGRAM)
            state = self._histograms[name] = HistogramState(spec.buckets)
        state.observe(value)

    # -- reading -------------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        key = self._counter_keys[(name, *labels.items())]
        return self._counters.get(key, 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all its label values."""
        self._spec(name, MetricKind.COUNTER)
        prefix = f"{name}{{"
        return sum(
            value for key, value in self._counters.items()
            if key == name or key.startswith(prefix)
        )

    def gauge_value(self, name: str, **labels: str) -> float:
        key = self._gauge_keys[(name, *labels.items())]
        return self._gauges.get(key, 0.0)

    def histogram(self, name: str) -> "HistogramState | None":
        self._spec(name, MetricKind.HISTOGRAM)
        return self._histograms.get(name)

    def snapshot(self) -> "dict[str, Any]":
        """Deterministic full dump (sorted flat keys)."""
        return {
            "counters": {
                key: self._counters[key] for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key] for key in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        )

    def render(self) -> str:
        """Human-readable snapshot with catalog units."""
        rows = list(self._rows())
        if not rows:
            return "metrics: (none recorded)"
        return render_table(
            ("metric", "value", "unit"), rows, title="metrics snapshot"
        )

    def _rows(self) -> "Iterator[tuple[str, str, str]]":
        for key in sorted(self._counters):
            name = key.split("{", 1)[0]
            value = self._counters[key]
            yield key, f"{value:g}", CATALOG[name].unit
        for key in sorted(self._gauges):
            name = key.split("{", 1)[0]
            yield key, f"{self._gauges[key]:g}", CATALOG[name].unit
        for name in sorted(self._histograms):
            state = self._histograms[name]
            mean = state.sum / state.total if state.total else 0.0
            yield (
                name,
                f"n={state.total} mean={mean:g}",
                CATALOG[name].unit,
            )

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
