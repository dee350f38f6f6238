"""The flight recorder: fixed-interval time series over the registry.

A terminal metrics snapshot answers *what happened*; an operator needs
*when*.  The :class:`FlightRecorder` rides the simulated clock: armed
on an :class:`~repro.session.engine.EventLoop`, it snapshots the
:class:`~repro.telemetry.metrics.MetricsRegistry` every ``interval_s``
simulated seconds into bounded ring buffers — cumulative counters (from
which per-interval rates derive), gauge values, and full histogram
bucket vectors (from which windowed quantiles derive).  Everything is a
pure function of the run's seed: sample times come from the event loop,
values from the catalog-validated registry, so two same-seed runs
export byte-identical JSONL.

Series keys are ``kind:flat-metric-key`` (``rate:`` series are derived
at query/export time, never stored):

* ``counter:storm.gate.decisions{decision=shed}`` — cumulative value,
* ``gauge:storm.queue.depth`` — last set value,
* ``hist:service.verdict.wait_s`` — ``[count_0, …, overflow, total,
  sum]`` cumulative bucket vector.

The query methods (:meth:`~FlightRecorder.counter_series`,
:meth:`~FlightRecorder.counter_rate`,
:meth:`~FlightRecorder.gauge_series`,
:meth:`~FlightRecorder.quantile_series`,
:meth:`~FlightRecorder.histogram_series`) take catalog metric names —
reprolint REP011 statically rejects names the catalog does not know,
exactly as it does for emission sites.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Union

from ..util.errors import TelemetryError
from .catalog import CATALOG, MetricKind
from .metrics import HistogramState, format_metric_key, parse_metric_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.engine import EventLoop
    from . import Telemetry

__all__ = [
    "FlightRecorder",
    "SeriesPoint",
    "TimeSeriesDump",
    "read_timeseries_jsonl",
]

TIMESERIES_SCHEMA = "repro.timeseries/v1"

# A sample is (simulated time, value); histogram samples carry the
# bucket vector instead of a scalar.
SeriesPoint = "tuple[float, Any]"


class _Ring:
    """Fixed-capacity append-only window; overwrites the oldest point."""

    __slots__ = ("capacity", "_items", "_start", "dropped")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise TelemetryError(
                f"ring capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._items: "list[Any]" = []
        self._start = 0
        self.dropped = 0

    def append(self, item: Any) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        self._items[self._start] = item
        self._start = (self._start + 1) % self.capacity
        self.dropped += 1

    def items(self) -> "list[Any]":
        return self._items[self._start:] + self._items[:self._start]

    def last(self) -> Any:
        """The newest item of a non-empty ring, without copying it."""
        return self._items[self._start - 1]

    def __len__(self) -> int:
        return len(self._items)


class FlightRecorder:
    """Seeded, sim-clock-driven scraper for the metrics registry.

    Wire-up is two calls: construct over the deployment's telemetry
    hub, then :meth:`arm` on the scenario's event loop (bounded by the
    run horizon so a drained loop terminates); the driver calls
    :meth:`finish` after the loop drains to capture the end state.
    """

    def __init__(
        self,
        telemetry: "Telemetry",
        *,
        interval_s: float = 1.0,
        capacity: int = 4096,
    ) -> None:
        if interval_s <= 0:
            raise TelemetryError(
                f"interval_s must be positive, got {interval_s}"
            )
        self.telemetry = telemetry
        self.interval_s = interval_s
        self.capacity = capacity
        self._ticks = _Ring(capacity)
        self._series: "dict[str, _Ring]" = {}
        self._armed_at: "float | None" = None

    # -- sampling ------------------------------------------------------------------

    def arm(self, loop: "EventLoop", *, until: "float | None" = None) -> None:
        """Take a baseline sample now, then one every ``interval_s``
        until ``until`` (absolute simulated time).  A bound is required
        whenever the loop is drained to exhaustion — an unbounded
        periodic sampler would keep the loop alive forever."""
        self._armed_at = loop.now
        self.sample(loop.now)
        loop.every(
            self.interval_s,
            lambda: self.sample(loop.now),
            label="telemetry:flight-recorder",
            until=until,
        )

    def sample(self, now: float) -> None:
        """Snapshot every live instrument at simulated time ``now``."""
        if not self.telemetry.enabled:
            return
        if len(self._ticks) and self._ticks.last() == now:
            return  # one sample per instant, even if armed twice
        self._ticks.append(now)
        # Straight from the registry's stores: its snapshot() sorts and
        # renders every instrument for export, which a scrape discards.
        registry = self.telemetry.metrics
        for key, value in registry._counters.items():
            self._point("counter:" + key, now, value)
        for key, value in registry._gauges.items():
            self._point("gauge:" + key, now, value)
        for name, state in registry._histograms.items():
            vector = state.counts + [state.overflow, state.total, state.sum]
            self._point("hist:" + name, now, vector)

    def finish(self, now: float) -> None:
        """Capture the drained end state (idempotent per instant)."""
        self.sample(now)

    def _point(self, series: str, now: float, value: Any) -> None:
        ring = self._series.get(series)
        if ring is None:
            ring = self._series[series] = _Ring(self.capacity)
        ring.append((now, value))

    # -- bookkeeping ---------------------------------------------------------------

    @property
    def samples(self) -> int:
        return len(self._ticks)

    @property
    def dropped(self) -> int:
        return self._ticks.dropped + sum(
            ring.dropped for ring in self._series.values()
        )

    def tick_times(self) -> "tuple[float, ...]":
        return tuple(self._ticks.items())

    def series_names(self) -> "tuple[str, ...]":
        return tuple(sorted(self._series))

    def label_values(self, name: str) -> "tuple[str, ...]":
        """Label values a counter/gauge has emitted under, sorted."""
        self._require(name)
        values = []
        for series in self._series:
            kind, _, key = series.partition(":")
            if kind not in ("counter", "gauge"):
                continue
            metric, label_value = parse_metric_key(key)
            if metric == name and label_value is not None:
                values.append(label_value)
        return tuple(sorted(values))

    @staticmethod
    def _require(name: str, kind: "MetricKind | None" = None) -> None:
        spec = CATALOG.get(name)
        if spec is None:
            raise TelemetryError(
                f"metric {name!r} is not in the catalog; the recorder "
                "only serves catalog time series"
            )
        if kind is not None and spec.kind is not kind:
            raise TelemetryError(
                f"metric {name!r} is a {spec.kind.value}, not a "
                f"{kind.value}"
            )

    def _points(self, series: str) -> "list[tuple[float, Any]]":
        ring = self._series.get(series)
        return ring.items() if ring is not None else []

    # -- queries (first argument must be a catalog metric name) --------------------

    def counter_series(
        self, name: str, label: "str | None" = None
    ) -> "tuple[tuple[float, float], ...]":
        """Cumulative counter value at each sample tick."""
        self._require(name, MetricKind.COUNTER)
        key = format_metric_key(name, label)
        return tuple(self._points(f"counter:{key}"))

    def counter_rate(
        self, name: str, label: "str | None" = None
    ) -> "tuple[tuple[float, float], ...]":
        """Per-second rate over each sampling interval; the point at
        ``t`` covers ``(previous tick, t]``.  A counter born mid-run
        counts from zero at the preceding tick."""
        self._require(name, MetricKind.COUNTER)
        key = format_metric_key(name, label)
        return self._rate_of(self._points(f"counter:{key}"))

    def _rate_of(
        self, points: "list[tuple[float, float]]"
    ) -> "tuple[tuple[float, float], ...]":
        if not points:
            return ()
        ticks = self._ticks.items()
        first_t = points[0][0]
        previous_ticks = [t for t in ticks if t < first_t]
        if previous_ticks:
            prior = (previous_ticks[-1], 0.0)
        elif self._armed_at is not None and self._armed_at < first_t:
            prior = (self._armed_at, 0.0)
        else:
            prior = None
        rates: "list[tuple[float, float]]" = []
        if prior is not None:
            points = [prior] + points
        else:
            rates.append((points[0][0], 0.0))
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt = t1 - t0
            rates.append((t1, (v1 - v0) / dt if dt > 0 else 0.0))
        return tuple(rates)

    def gauge_series(
        self, name: str, label: "str | None" = None
    ) -> "tuple[tuple[float, float], ...]":
        self._require(name, MetricKind.GAUGE)
        key = format_metric_key(name, label)
        return tuple(self._points(f"gauge:{key}"))

    def histogram_series(
        self, name: str
    ) -> "tuple[tuple[float, HistogramState], ...]":
        """Cumulative :class:`HistogramState` at each tick."""
        self._require(name, MetricKind.HISTOGRAM)
        spec = CATALOG[name]
        out = []
        for now, vector in self._points(f"hist:{name}"):
            out.append((now, _state_from_vector(spec.buckets, vector)))
        return tuple(out)

    def quantile_series(
        self, name: str, q: float
    ) -> "tuple[tuple[float, float], ...]":
        """Cumulative-distribution quantile estimate at each tick."""
        return tuple(
            (now, state.quantile(q))
            for now, state in self.histogram_series(name)
        )

    def window_histogram(
        self, name: str, start_s: float, end_s: float
    ) -> HistogramState:
        """Delta histogram over ``(start_s, end_s]``: observations made
        strictly after the last tick at/before ``start_s`` up to the
        last tick at/before ``end_s``."""
        series = self.histogram_series(name)
        spec = CATALOG[name]
        at_end = _last_at_or_before(series, end_s)
        at_start = _last_at_or_before(series, start_s)
        if at_end is None:
            return HistogramState(spec.buckets)
        if at_start is None:
            return at_end[1]
        return _subtract_states(spec.buckets, at_end, at_start)

    # -- export --------------------------------------------------------------------

    def as_dict(self) -> "dict[str, Any]":
        """Compact summary for embedding in run reports."""
        ticks = self._ticks.items()
        return {
            "schema": TIMESERIES_SCHEMA,
            "interval_s": self.interval_s,
            "samples": len(ticks),
            "series": len(self._series),
            "dropped": self.dropped,
            "first_s": ticks[0] if ticks else None,
            "last_s": ticks[-1] if ticks else None,
        }

    def to_jsonl_lines(self) -> "list[str]":
        """Canonical JSONL: one header line, then one line per series
        in sorted key order — byte-identical across same-seed runs."""
        header = {
            "schema": TIMESERIES_SCHEMA,
            "interval_s": self.interval_s,
            "samples": self.samples,
            "series": len(self._series),
            "dropped": self.dropped,
            "ticks": self._ticks.items(),
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        for series in sorted(self._series):
            record = {
                "series": series,
                "points": [
                    [now, value] for now, value in self._points(series)
                ],
            }
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
        return lines

    def write_jsonl(self, path: "Union[str, Path]") -> int:
        """Write the canonical dump; returns the number of lines."""
        lines = self.to_jsonl_lines()
        Path(path).write_text(
            "\n".join(lines) + "\n", encoding="utf-8", newline="\n"
        )
        return len(lines)


def _state_from_vector(
    buckets: "tuple[float, ...]", vector: "list[Any]"
) -> HistogramState:
    state = HistogramState(buckets)
    state.counts = [int(count) for count in vector[:len(buckets)]]
    state.overflow = int(vector[len(buckets)])
    state.total = int(vector[len(buckets) + 1])
    state.sum = float(vector[len(buckets) + 2])
    return state


def _subtract_states(
    buckets: "tuple[float, ...]",
    later: "tuple[float, HistogramState]",
    earlier: "tuple[float, HistogramState]",
) -> HistogramState:
    _, end = later
    _, start = earlier
    state = HistogramState(buckets)
    state.counts = [
        e - s for e, s in zip(end.counts, start.counts)
    ]
    state.overflow = end.overflow - start.overflow
    state.total = end.total - start.total
    state.sum = end.sum - start.sum
    return state


def _last_at_or_before(
    series: "tuple[tuple[float, HistogramState], ...]", when: float
) -> "tuple[float, HistogramState] | None":
    found = None
    for now, state in series:
        if now <= when + 1e-12:
            found = (now, state)
        else:
            break
    return found


class TimeSeriesDump:
    """Parsed form of one recorder JSONL artifact."""

    __slots__ = ("header", "series")

    def __init__(
        self, header: "dict[str, Any]",
        series: "dict[str, list[tuple[float, Any]]]",
    ) -> None:
        self.header = header
        self.series = series

    def points(self, series: str) -> "list[tuple[float, Any]]":
        return self.series.get(series, [])

    def names(self) -> "tuple[str, ...]":
        return tuple(sorted(self.series))


def read_timeseries_jsonl(path: "Union[str, Path]") -> TimeSeriesDump:
    """Round-trip reader for :meth:`FlightRecorder.write_jsonl`."""
    lines = [
        line for line in
        Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not lines:
        raise TelemetryError(f"empty time-series file: {path}")
    header = json.loads(lines[0])
    if header.get("schema") != TIMESERIES_SCHEMA:
        raise TelemetryError(
            f"unexpected time-series schema {header.get('schema')!r} "
            f"in {path}"
        )
    series: "dict[str, list[tuple[float, Any]]]" = {}
    for line in lines[1:]:
        record = json.loads(line)
        series[record["series"]] = [
            (float(now), value) for now, value in record["points"]
        ]
    return TimeSeriesDump(header, series)
