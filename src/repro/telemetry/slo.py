"""Declarative SLOs with multi-window burn-rate alerting.

An SLO here is exactly the SRE-workbook object, evaluated over the
:class:`~repro.telemetry.timeseries.FlightRecorder`'s deterministic
time series instead of a wall-clock TSDB:

* a **ratio** SLO counts bad events against total events (selected
  from catalog counters by label), e.g. *≥97% of terminal verdicts are
  served, not shed/FAILEDTRYLATER*;
* a **quantile** SLO grades each sampling interval good/bad by a
  windowed histogram quantile, e.g. *p99 verdict wait ≤ 30 simulated
  seconds*;
* a **zero** SLO demands two counter families balance at end of run —
  the leak-freedom invariant (every reserved stream/flow released).

The error budget is the classic ``1 - objective`` fraction; the **burn
rate** over a window is the observed bad fraction divided by the
allowed fraction (burn 1.0 = spending budget exactly at the sustainable
pace).  An alert fires only when *both* the long and the short window
of a :class:`BurnRatePolicy` exceed its threshold — the long window
filters blips, the short window makes the alert reset quickly once the
incident ends.  Windows are simulated seconds scaled to the sim's
horizons (minutes, not hours), but the arithmetic is the standard
multi-window, multi-burn-rate construction.

Everything here is a pure function of the recorder's contents, so the
``repro slo`` verdict and report are byte-reproducible from the run
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..util.errors import TelemetryError
from ..util.tables import render_table
from .catalog import CATALOG, MetricKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .timeseries import FlightRecorder

__all__ = [
    "EventSelector",
    "BurnRatePolicy",
    "SloSpec",
    "BurnAlert",
    "SloResult",
    "SloReport",
    "evaluate_slos",
    "default_slos",
    "DEFAULT_BURN_POLICIES",
]


@dataclass(frozen=True, slots=True)
class EventSelector:
    """A family of counter series: a catalog metric, optionally pinned
    to specific label values (empty = every label value emitted)."""

    metric: str
    labels: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        spec = CATALOG.get(self.metric)
        if spec is None:
            raise TelemetryError(
                f"SLO selector metric {self.metric!r} is not in the "
                "telemetry catalog"
            )
        if spec.kind is not MetricKind.COUNTER:
            raise TelemetryError(
                f"SLO selectors count events; {self.metric!r} is a "
                f"{spec.kind.value}"
            )
        if self.labels and spec.label is None:
            raise TelemetryError(
                f"metric {self.metric!r} takes no label, but selector "
                f"pins {self.labels!r}"
            )


@dataclass(frozen=True, slots=True)
class BurnRatePolicy:
    """One multi-window alert rule: fire when the burn rate over both
    the long and the short trailing window reaches ``threshold``."""

    long_s: float
    short_s: float
    threshold: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s <= self.short_s:
            raise TelemetryError(
                f"burn windows must satisfy 0 < short < long, got "
                f"short={self.short_s} long={self.long_s}"
            )
        if self.threshold <= 0:
            raise TelemetryError(
                f"burn threshold must be positive, got {self.threshold}"
            )


# Scaled-down analogue of the SRE-workbook 1h/5m + 6h/30m pairs for
# 120-second load horizons: the page pair spots a fast burn inside two
# long windows, the ticket pair a slow sustained burn.
DEFAULT_BURN_POLICIES: "tuple[BurnRatePolicy, ...]" = (
    BurnRatePolicy(long_s=30.0, short_s=5.0, threshold=8.0,
                   severity="page"),
    BurnRatePolicy(long_s=90.0, short_s=15.0, threshold=3.0,
                   severity="ticket"),
)


@dataclass(frozen=True, slots=True)
class SloSpec:
    """One service-level objective over recorder time series.

    ``kind`` selects the evaluation:

    * ``"ratio"`` — ``bad`` / ``total`` event selectors;
    * ``"quantile"`` — ``metric`` names a catalog histogram; an
      interval is bad when its windowed ``quantile`` exceeds
      ``threshold_s``;
    * ``"zero"`` — ``acquired`` minus ``released`` must be zero at end
      of run (burn policies do not apply).
    """

    name: str
    description: str
    objective: float
    kind: str
    bad: "tuple[EventSelector, ...]" = ()
    total: "tuple[EventSelector, ...]" = ()
    metric: "str | None" = None
    quantile: float = 0.99
    threshold_s: float = 0.0
    acquired: "tuple[EventSelector, ...]" = ()
    released: "tuple[EventSelector, ...]" = ()
    policies: "tuple[BurnRatePolicy, ...]" = DEFAULT_BURN_POLICIES

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise TelemetryError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind not in ("ratio", "quantile", "zero"):
            raise TelemetryError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "ratio" and (not self.bad or not self.total):
            raise TelemetryError(
                f"ratio SLO {self.name!r} needs bad and total selectors"
            )
        if self.kind == "quantile":
            spec = CATALOG.get(self.metric or "")
            if spec is None or spec.kind is not MetricKind.HISTOGRAM:
                raise TelemetryError(
                    f"quantile SLO {self.name!r} needs a catalog "
                    f"histogram, got {self.metric!r}"
                )
        if self.kind == "zero" and (not self.acquired or not self.released):
            raise TelemetryError(
                f"zero SLO {self.name!r} needs acquired and released "
                "selectors"
            )

    @property
    def budget(self) -> float:
        """Allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective


@dataclass(frozen=True, slots=True)
class BurnAlert:
    """One multi-window alert firing."""

    slo: str
    severity: str
    fired_at_s: float
    long_s: float
    short_s: float
    long_burn: float
    short_burn: float
    threshold: float

    def as_dict(self) -> "dict[str, Any]":
        return {
            "slo": self.slo,
            "severity": self.severity,
            "fired_at_s": self.fired_at_s,
            "long_s": self.long_s,
            "short_s": self.short_s,
            "long_burn": round(self.long_burn, 6),
            "short_burn": round(self.short_burn, 6),
            "threshold": self.threshold,
        }


@dataclass(slots=True)
class SloResult:
    """One SLO's verdict over a whole run."""

    spec: SloSpec
    total_events: float
    bad_events: float
    alerts: "tuple[BurnAlert, ...]" = ()
    worst_burn: float = 0.0

    @property
    def bad_fraction(self) -> float:
        return self.bad_events / self.total_events if self.total_events else 0.0

    @property
    def budget_spent(self) -> float:
        """Fraction of the error budget consumed (1.0 = exhausted)."""
        allowed = self.spec.budget * self.total_events
        if allowed <= 0:
            return 1.0 if self.bad_events else 0.0
        return self.bad_events / allowed

    @property
    def paged(self) -> bool:
        return any(alert.severity == "page" for alert in self.alerts)

    @property
    def breached(self) -> bool:
        """Out of SLO: a page-severity alert fired or the whole-run
        error budget is exhausted."""
        return self.paged or self.budget_spent >= 1.0

    def as_dict(self) -> "dict[str, Any]":
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "objective": self.spec.objective,
            "total_events": self.total_events,
            "bad_events": self.bad_events,
            "bad_fraction": round(self.bad_fraction, 6),
            "budget_spent": round(self.budget_spent, 6),
            "worst_burn": round(self.worst_burn, 6),
            "alerts": [alert.as_dict() for alert in self.alerts],
            "breached": self.breached,
        }


@dataclass(slots=True)
class SloReport:
    """The full scorecard ``repro slo`` prints and CI archives."""

    results: "tuple[SloResult, ...]" = field(default_factory=tuple)

    @property
    def breached(self) -> bool:
        return any(result.breached for result in self.results)

    def as_dict(self) -> "dict[str, Any]":
        return {
            "schema": "repro.slo-report/v1",
            "breached": self.breached,
            "slos": [result.as_dict() for result in self.results],
        }

    def render(self) -> str:
        rows = []
        for result in self.results:
            rows.append((
                result.spec.name,
                result.spec.kind,
                f"{result.spec.objective:.3f}",
                f"{result.bad_events:g}/{result.total_events:g}",
                f"{result.budget_spent * 100:.1f}%",
                f"{result.worst_burn:.2f}x",
                str(len(result.alerts)),
                "BREACHED" if result.breached else "ok",
            ))
        return render_table(
            ("slo", "kind", "objective", "bad/total", "budget spent",
             "worst burn", "alerts", "verdict"),
            rows,
            title="SLO scorecard",
        )


# -- evaluation --------------------------------------------------------------------


def _sum_selectors_at(
    recorder: "FlightRecorder",
    selectors: "tuple[EventSelector, ...]",
    when: float,
) -> float:
    """Summed cumulative count across selected series at tick ``when``
    (last sample at or before it; 0 before the first sample)."""
    total = 0.0
    for selector in selectors:
        spec = CATALOG[selector.metric]
        if spec.label is None:
            labels: "tuple[str | None, ...]" = (None,)
        elif selector.labels:
            labels = selector.labels
        else:
            labels = recorder.label_values(selector.metric) or ()
        for label in labels:
            series = recorder.counter_series(selector.metric, label)
            value = 0.0
            for now, cumulative in series:
                if now <= when + 1e-12:
                    value = cumulative
                else:
                    break
            total += value
    return total


def _window_bad_fraction(
    recorder: "FlightRecorder",
    spec: SloSpec,
    start_s: float,
    end_s: float,
) -> float:
    """Bad fraction of a ratio SLO over ``(start_s, end_s]``; windows
    with no traffic burn nothing."""
    bad = (_sum_selectors_at(recorder, spec.bad, end_s)
           - _sum_selectors_at(recorder, spec.bad, start_s))
    total = (_sum_selectors_at(recorder, spec.total, end_s)
             - _sum_selectors_at(recorder, spec.total, start_s))
    if total <= 0:
        return 0.0
    return max(0.0, bad) / total


def _quantile_interval_verdicts(
    recorder: "FlightRecorder", spec: SloSpec
) -> "tuple[tuple[float, bool], ...]":
    """Per-tick (time, is_bad) for a quantile SLO: the interval ending
    at each tick is bad when its delta-histogram quantile exceeds the
    threshold.  Idle intervals (no new observations) are good."""
    assert spec.metric is not None
    ticks = recorder.tick_times()
    verdicts: "list[tuple[float, bool]]" = []
    for previous, now in zip(ticks, ticks[1:]):
        window = recorder.window_histogram(spec.metric, previous, now)
        if window.total <= 0:
            verdicts.append((now, False))
            continue
        verdicts.append(
            (now, window.quantile(spec.quantile) > spec.threshold_s)
        )
    return tuple(verdicts)


def _burn_alerts(
    spec: SloSpec,
    burn_at: "Any",
    ticks: "tuple[float, ...]",
) -> "tuple[tuple[BurnAlert, ...], float]":
    """Scan every tick against every policy; ``burn_at(start, end)``
    answers the bad fraction over a window.  Returns the first firing
    per policy plus the worst long-window burn seen."""
    alerts: "list[BurnAlert]" = []
    worst = 0.0
    budget = spec.budget
    for policy in spec.policies:
        fired = None
        for now in ticks:
            if now - ticks[0] + 1e-12 < policy.long_s:
                continue  # wait for a full long window
            long_burn = burn_at(now - policy.long_s, now) / budget
            worst = max(worst, long_burn)
            if long_burn < policy.threshold:
                continue
            short_burn = burn_at(now - policy.short_s, now) / budget
            if short_burn < policy.threshold:
                continue
            fired = BurnAlert(
                slo=spec.name,
                severity=policy.severity,
                fired_at_s=now,
                long_s=policy.long_s,
                short_s=policy.short_s,
                long_burn=long_burn,
                short_burn=short_burn,
                threshold=policy.threshold,
            )
            break
        if fired is not None:
            alerts.append(fired)
    return tuple(alerts), worst


def _evaluate_ratio(
    recorder: "FlightRecorder", spec: SloSpec
) -> SloResult:
    ticks = recorder.tick_times()
    if not ticks:
        return SloResult(spec=spec, total_events=0.0, bad_events=0.0)
    end = ticks[-1]
    start = ticks[0]
    total = (_sum_selectors_at(recorder, spec.total, end)
             - _sum_selectors_at(recorder, spec.total, start))
    bad = (_sum_selectors_at(recorder, spec.bad, end)
           - _sum_selectors_at(recorder, spec.bad, start))

    def burn_at(window_start: float, window_end: float) -> float:
        return _window_bad_fraction(recorder, spec, window_start, window_end)

    alerts, worst = _burn_alerts(spec, burn_at, ticks)
    return SloResult(
        spec=spec,
        total_events=total,
        bad_events=max(0.0, bad),
        alerts=alerts,
        worst_burn=worst,
    )


def _evaluate_quantile(
    recorder: "FlightRecorder", spec: SloSpec
) -> SloResult:
    verdicts = _quantile_interval_verdicts(recorder, spec)
    ticks = recorder.tick_times()
    if not verdicts:
        return SloResult(spec=spec, total_events=0.0, bad_events=0.0)

    def burn_at(window_start: float, window_end: float) -> float:
        in_window = [
            bad for now, bad in verdicts
            if window_start + 1e-12 < now <= window_end + 1e-12
        ]
        if not in_window:
            return 0.0
        return sum(in_window) / len(in_window)

    alerts, worst = _burn_alerts(spec, burn_at, ticks)
    return SloResult(
        spec=spec,
        total_events=float(len(verdicts)),
        bad_events=float(sum(bad for _, bad in verdicts)),
        alerts=alerts,
        worst_burn=worst,
    )


def _evaluate_zero(
    recorder: "FlightRecorder", spec: SloSpec
) -> SloResult:
    ticks = recorder.tick_times()
    if not ticks:
        return SloResult(spec=spec, total_events=0.0, bad_events=0.0)
    end = ticks[-1]
    acquired = _sum_selectors_at(recorder, spec.acquired, end)
    released = _sum_selectors_at(recorder, spec.released, end)
    leaked = acquired - released
    return SloResult(
        spec=spec,
        total_events=acquired,
        bad_events=abs(leaked),
    )


def evaluate_slos(
    recorder: "FlightRecorder", slos: "tuple[SloSpec, ...]"
) -> SloReport:
    """Grade a recorded run against the SLO set ``slos``."""
    results = []
    for spec in slos:
        if spec.kind == "ratio":
            results.append(_evaluate_ratio(recorder, spec))
        elif spec.kind == "quantile":
            results.append(_evaluate_quantile(recorder, spec))
        else:
            results.append(_evaluate_zero(recorder, spec))
    return SloReport(results=tuple(results))


def default_slos() -> "tuple[SloSpec, ...]":
    """The shipped SLO set for the 3-server reference deployment.

    Objectives are calibrated against the seeded nominal load cell
    (multiplier 1.0 of ``LoadSpec`` defaults): it passes every SLO with
    budget to spare, while a mid-run ``server-brownout`` at the same
    arrival rate pages on the served-rate burn.
    """
    return (
        SloSpec(
            name="served-verdicts",
            description="terminal verdicts that are real answers, not "
                        "FAILEDTRYLATER deflections or gate sheds",
            objective=0.95,
            kind="ratio",
            bad=(
                EventSelector("negotiation.outcomes",
                              ("FAILEDTRYLATER",)),
                EventSelector("storm.gate.decisions", ("shed",)),
            ),
            total=(
                EventSelector("negotiation.outcomes"),
                EventSelector("storm.gate.decisions", ("shed",)),
            ),
        ),
        SloSpec(
            name="admission-health",
            description="reservation calls that are refused after "
                        "exhausting their retry budget",
            objective=0.90,
            kind="ratio",
            bad=(EventSelector("admission.refusals"),),
            total=(EventSelector("admission.attempts"),),
        ),
        SloSpec(
            name="verdict-latency-p99",
            description="p99 simulated wait from submission to terminal "
                        "verdict, per sampling interval",
            objective=0.90,
            kind="quantile",
            metric="service.verdict.wait_s",
            quantile=0.99,
            threshold_s=30.0,
        ),
        SloSpec(
            name="zero-leak",
            description="every reserved stream and network flow is "
                        "released by end of run",
            objective=0.999,
            kind="zero",
            acquired=(
                EventSelector("server.streams.reserved"),
                EventSelector("network.flows.reserved"),
            ),
            released=(
                EventSelector("server.streams.released"),
                EventSelector("network.flows.released"),
            ),
        ),
    )
