"""Load generation and overload-survival curves for the service.

Drives the concurrent negotiation service (:mod:`repro.service`) with a
seeded arrival process — homogeneous Poisson, a diurnal sinusoid, or a
flash crowd — through the :class:`~repro.storm.AdmissionGate`, sweeps
the offered load over a set of multipliers, and reports the saturation
curve: negotiations/s served vs. offered, p50/p99 verdict latency,
FAILEDTRYLATER and shed rates, and a fairness/starvation audit (max
per-client wait, Jain's index over per-client goodput).

The graceful-degradation contract (``python -m repro load`` exits
nonzero unless it holds): at every cell at or beyond 2× the measured
saturation rate the service must still *shed honestly* — every
FAILEDTRYLATER carries a positive ``retry_after_s`` hint, every request
gets a terminal verdict (no starved client), the journal reconciles
balanced, and the ledgers hold zero leaked reservations.

Non-homogeneous arrivals are generated by thinning: candidate events
are drawn at the peak rate and accepted with probability
``rate(t)/peak``, all from one seeded generator, so a run is exactly
reproducible (``python -m repro load --seed S`` is byte-identical).
"""

from __future__ import annotations

import numpy as np
from dataclasses import asdict, dataclass, field
from typing import ClassVar

from ..core.status import NegotiationStatus
from ..faults.plan import FaultPlan, FaultSpec
from ..journal import ReservationJournal
from ..service import NegotiationService, ServicePolicy
from ..storm import AdmissionGate, GatePolicy
from ..telemetry import InMemorySpanExporter, Span
from ..telemetry.report import reconcile_journal
from ..telemetry.timeseries import FlightRecorder
from ..util.errors import SimulationError
from ..util.rng import make_rng
from ..util.tables import render_table
from ..util.validation import (
    check_at_least,
    check_fraction,
    check_non_negative,
    check_positive,
)
from .run import (
    Artifacts,
    RunReport,
    inject,
    stock_profile,
    storm_scale_deployment,
)
from .scenario import ScenarioSpec, build_scenario

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "arrival_times",
    "LoadSpec",
    "LoadCellReport",
    "LoadReport",
    "CellRun",
    "run_load_cell",
    "run_load_cell_instrumented",
    "run_load",
    "jain_index",
]

ARRIVAL_KINDS = ("poisson", "diurnal", "flash")

# The load deployment: six two-minute articles on servers that admit up
# to 96 streams each, behind one gate and one service policy.
DOCUMENTS = 6
DOCUMENT_DURATION_S = 120.0
MAX_STREAMS_PER_SERVER = 96
GATE = GatePolicy(rate_per_s=6.0, burst=16, queue_limit=64, retry_limit=2)
SERVICE = ServicePolicy(
    max_offers=8,
    deadline_budget_s=10.0,
    reservation_step_s=0.01,
    plan_s=0.005,
    confirm_delay_s=2.0,
    confirm_jitter=0.5,
    slow_user_fraction=0.05,
    reject_fraction=0.05,
    hold_s=30.0,
)
# The bound on any client's verdict wait; beyond it the client starved.
STARVATION_WAIT_S = 240.0


@dataclass(frozen=True, slots=True)
class ArrivalSpec:
    """One arrival process over ``[0, horizon_s)``.

    ``poisson`` is homogeneous at ``rate_per_s``; ``diurnal`` modulates
    it by ``1 + amplitude*sin(2πt/period_s)``; ``flash`` multiplies it
    by ``spike_factor`` inside the spike window (the flash crowd).
    """

    kind: str = "poisson"
    rate_per_s: float = 1.0
    horizon_s: float = 120.0
    amplitude: float = 0.6
    period_s: float = 120.0
    spike_factor: float = 6.0
    spike_start_s: float = 40.0
    spike_duration_s: float = 20.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise SimulationError(
                f"arrival kind must be one of {ARRIVAL_KINDS}, "
                f"got {self.kind!r}"
            )
        check_positive(self.rate_per_s, "rate_per_s")
        check_positive(self.horizon_s, "horizon_s")
        check_fraction(self.amplitude, "amplitude")
        check_positive(self.period_s, "period_s")
        check_at_least(self.spike_factor, 1.0, "spike_factor")
        check_non_negative(self.spike_start_s, "spike_start_s")
        check_positive(self.spike_duration_s, "spike_duration_s")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        if self.kind == "diurnal":
            return self.rate_per_s * (
                1.0 + self.amplitude * float(
                    np.sin(2.0 * np.pi * t / self.period_s)
                )
            )
        if self.kind == "flash":
            in_spike = (
                self.spike_start_s
                <= t
                < self.spike_start_s + self.spike_duration_s
            )
            return self.rate_per_s * (
                self.spike_factor if in_spike else 1.0
            )
        return self.rate_per_s

    def peak_rate(self) -> float:
        if self.kind == "diurnal":
            return self.rate_per_s * (1.0 + self.amplitude)
        if self.kind == "flash":
            return self.rate_per_s * self.spike_factor
        return self.rate_per_s


def arrival_times(
    spec: ArrivalSpec, rng, *, rate_scale: float = 1.0
) -> "list[float]":
    """Draw one arrival trace by thinning against the peak rate."""
    check_positive(rate_scale, "rate_scale")
    peak = spec.peak_rate() * rate_scale
    times: "list[float]" = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= spec.horizon_s:
            return times
        accept = spec.rate_at(t) * rate_scale / peak
        if float(rng.uniform(0.0, 1.0)) <= accept:
            times.append(t)


def jain_index(values: "list[float]") -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one client
    takes everything.  Defined as 1.0 for an all-zero allocation."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True, slots=True)
class LoadSpec:
    """One reproducible load sweep."""

    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    servers: int = 3
    clients: int = 12
    seed: int = 1                 # arrivals + user behaviour
    scheduler_seed: int = 0       # the interleaving dimension
    telemetry_seed: "int | None" = None
    multipliers: "tuple[float, ...]" = (0.5, 1.0, 2.0, 4.0, 8.0)
    use_gate: bool = True
    profile_name: str = "balanced"
    # Optional mid-run faults (e.g. a SERVER_BROWNOUT window): the SLO
    # scenarios inject capacity loss into an otherwise nominal cell.
    faults: "tuple[FaultSpec, ...]" = ()
    # Read by whoever wires a cell; one value each, so not parameters.
    gate: ClassVar[GatePolicy] = GATE
    service: ClassVar[ServicePolicy] = SERVICE

    def __post_init__(self) -> None:
        if self.servers < 1 or self.clients < 1:
            raise SimulationError("need at least one server and client")
        if not self.multipliers:
            raise SimulationError("need at least one load multiplier")
        for multiplier in self.multipliers:
            check_positive(multiplier, "multiplier")

    def deployment(self) -> ScenarioSpec:
        return storm_scale_deployment(
            servers=self.servers,
            clients=self.clients,
            documents=DOCUMENTS,
            document_duration_s=DOCUMENT_DURATION_S,
            max_streams_per_server=MAX_STREAMS_PER_SERVER,
        )


@dataclass(slots=True)
class LoadCellReport(RunReport):
    """One point of the saturation curve."""

    multiplier: float = 1.0
    offered: int = 0
    offered_rate_per_s: float = 0.0
    served: int = 0               # verdicts that reserved resources
    served_rate_per_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    failed_try_later: int = 0
    shed: int = 0
    shed_rate: float = 0.0
    dishonest_hints: int = 0      # FAILEDTRYLATER without a positive hint
    unfinished: int = 0           # requests without a terminal verdict
    max_client_wait_s: float = 0.0
    wait_bound_exceeded: bool = False
    jain: float = 1.0
    overruns: int = 0
    expiries: int = 0
    confirmations: int = 0
    journal_balanced: bool = True
    gate: "dict[str, int]" = field(default_factory=dict)
    scheduler: "dict[str, int]" = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def clean(self) -> bool:
        return self.clean_teardown and self.journal_balanced

    @property
    def starved(self) -> bool:
        """A client is starved if it never got a verdict, or if its
        worst verdict wait blew the configured bound."""
        return self.unfinished > 0 or self.wait_bound_exceeded

    @property
    def graceful(self) -> bool:
        """Degrading, but honestly: every request answered, every
        refusal hinted, nothing leaked."""
        return (
            self.clean
            and not self.starved
            and self.dishonest_hints == 0
        )

    def as_dict(self) -> "dict[str, object]":
        return {**asdict(self), "graceful": self.graceful}


@dataclass(slots=True)
class LoadReport:
    """The whole sweep: the saturation curve plus the 2× verdict."""

    arrival_kind: str = "poisson"
    base_rate_per_s: float = 0.0
    seed: int = 0
    scheduler_seed: int = 0
    cells: "list[LoadCellReport]" = field(default_factory=list)
    # The measured capacity: the best *served* rate any cell achieved.
    saturation_rate_per_s: float = 0.0
    saturation_multiplier: float = 0.0
    overload_cells: int = 0       # cells offered >= 2x the capacity

    @property
    def graceful_at_2x(self) -> bool:
        """The acceptance gate: at least one cell was *offered* at
        least 2× the measured capacity (saturation served rate), and
        every such cell degraded gracefully."""
        beyond = [
            cell for cell in self.cells
            if cell.offered_rate_per_s
            >= 2.0 * self.saturation_rate_per_s - 1e-9
        ]
        return bool(beyond) and all(cell.graceful for cell in beyond)

    @property
    def all_clean(self) -> bool:
        return all(cell.clean for cell in self.cells)

    def as_dict(self) -> "dict[str, object]":
        return {
            "schema": "repro.load/v1",
            "arrival_kind": self.arrival_kind,
            "base_rate_per_s": self.base_rate_per_s,
            "seed": self.seed,
            "scheduler_seed": self.scheduler_seed,
            "cells": [cell.as_dict() for cell in self.cells],
            "saturation_rate_per_s": self.saturation_rate_per_s,
            "saturation_multiplier": self.saturation_multiplier,
            "overload_cells": self.overload_cells,
            "graceful_at_2x": self.graceful_at_2x,
            "all_clean": self.all_clean,
        }

    def render(self) -> str:
        rows = []
        for cell in self.cells:
            rows.append((
                f"{cell.multiplier:g}x",
                f"{cell.offered_rate_per_s:.2f}",
                f"{cell.served_rate_per_s:.2f}",
                f"{cell.latency_p50_s:.2f}",
                f"{cell.latency_p99_s:.2f}",
                f"{cell.shed_rate:.0%}",
                f"{cell.max_client_wait_s:.1f}",
                f"{cell.jain:.3f}",
                "yes" if cell.graceful else "NO",
            ))
        table = render_table(
            ("load", "offered/s", "served/s", "p50 s", "p99 s",
             "shed", "max wait s", "jain", "graceful"),
            rows,
            title=f"saturation curve ({self.arrival_kind} arrivals)",
        )
        verdict = (
            f"capacity {self.saturation_rate_per_s:.2f} "
            f"negotiations/s served "
            f"(peak at the {self.saturation_multiplier:g}x cell); "
            f"2x-saturation degradation: "
            f"{'graceful' if self.graceful_at_2x else 'NOT graceful'}"
        )
        return f"{table}\n{verdict}"


@dataclass(slots=True)
class CellRun:
    """One cell plus its observability artifacts (when recorded)."""

    report: LoadCellReport
    recorder: "FlightRecorder | None" = None
    spans: "list[Span]" = field(default_factory=list)


def run_load_cell(
    spec: LoadSpec, multiplier: float
) -> LoadCellReport:
    """Run one cell of the sweep on a fresh deployment."""
    return run_load_cell_instrumented(spec, multiplier).report


def run_load_cell_instrumented(
    spec: LoadSpec,
    multiplier: float,
    *,
    interval_s: "float | None" = None,
    collect_spans: bool = False,
) -> CellRun:
    """Run one cell; with ``interval_s`` a
    :class:`~repro.telemetry.timeseries.FlightRecorder` scrapes the
    cell's registry on the simulated clock, and with ``collect_spans``
    every span is retained for the critical-path profiler.  Both
    require ``spec.telemetry_seed`` — without a hub there is nothing
    to record."""
    profile = stock_profile(spec.profile_name)
    journal = ReservationJournal()
    scenario = build_scenario(
        spec.deployment(),
        journal=journal,
        telemetry_seed=spec.telemetry_seed,
    )
    artifacts = Artifacts(
        scenario, interval_s=interval_s, until=spec.arrival.horizon_s
    )
    span_sink = None
    if collect_spans and scenario.telemetry is not None:
        span_sink = InMemorySpanExporter()
        scenario.telemetry.tracer.add_exporter(span_sink)
    if spec.faults:
        # Same wiring as the storm runner: degradation shrinks the
        # admission budget, and the injector rides the event loop.
        for server in scenario.servers.values():
            server.degradation_limits_admission = True
        inject(scenario, FaultPlan(faults=spec.faults, seed=spec.seed))
    gate = None
    if spec.use_gate:
        gate = AdmissionGate(
            scenario.loop,
            policy=GATE,
            seed=spec.seed,
            telemetry=scenario.telemetry,
        )
    service = NegotiationService(
        scenario.manager,
        scenario.loop,
        policy=SERVICE,
        gate=gate,
        scheduler_seed=spec.scheduler_seed,
        seed=spec.seed,
        telemetry=scenario.telemetry,
    )
    clients = list(scenario.clients.values())
    documents = scenario.document_ids()
    telemetry = service.telemetry

    arrivals = arrival_times(
        spec.arrival, make_rng(spec.seed), rate_scale=multiplier
    )

    def submit(index: int) -> None:
        telemetry.count("load.arrivals", process=spec.arrival.kind)
        service.submit(
            documents[index % len(documents)],
            profile,
            clients[index % len(clients)],
            label=f"load-{index + 1}",
        )

    for index, when in enumerate(arrivals):
        scenario.loop.at(when, lambda i=index: submit(i))
    scenario.loop.run(max_events=4_000_000)

    report = LoadCellReport(
        multiplier=multiplier,
        offered=len(arrivals),
        offered_rate_per_s=len(arrivals) / spec.arrival.horizon_s,
    )
    waits: "list[float]" = []
    client_waits: "dict[str, float]" = {}
    client_served: "dict[str, float]" = {
        client.client_id: 0.0 for client in clients
    }
    for request in service.requests:
        status = request.status
        if status is None:
            continue
        report.statuses[str(status)] = (
            report.statuses.get(str(status), 0) + 1
        )
        if status.reserves_resources:
            report.served += 1
            client_served[request.client_id] = (
                client_served.get(request.client_id, 0.0) + 1.0
            )
        if status is NegotiationStatus.FAILED_TRY_LATER:
            report.failed_try_later += 1
            assert request.result is not None
            hint = request.result.retry_after_s
            if hint is None or hint <= 0.0:
                report.dishonest_hints += 1
        wait = request.verdict_wait_s
        if wait is not None:
            waits.append(wait)
            client_waits[request.client_id] = max(
                client_waits.get(request.client_id, 0.0), wait
            )
    report.unfinished = len(service.unfinished())
    if waits:
        report.latency_p50_s = float(np.percentile(waits, 50.0))
        report.latency_p99_s = float(np.percentile(waits, 99.0))
    report.max_client_wait_s = max(client_waits.values(), default=0.0)
    report.wait_bound_exceeded = (
        report.max_client_wait_s > STARVATION_WAIT_S
    )
    report.served_rate_per_s = report.served / spec.arrival.horizon_s
    report.jain = jain_index(list(client_served.values()))
    report.overruns = service.stats.overruns
    report.expiries = service.stats.expiries
    report.confirmations = service.stats.confirmations
    if gate is not None:
        report.gate = gate.stats.as_dict()
        report.shed = gate.stats.shed
        if report.offered:
            report.shed_rate = report.shed / report.offered
    report.scheduler = service.scheduler.stats.as_dict()
    report.audit(scenario)
    report.journal_balanced = bool(reconcile_journal(journal)["balanced"])
    report.duration_s = scenario.clock.now()
    report.timeline = artifacts.finish()
    return CellRun(
        report=report,
        recorder=artifacts.recorder,
        spans=list(span_sink.spans) if span_sink is not None else [],
    )


def run_load(spec: LoadSpec) -> LoadReport:
    """Sweep the offered-load multipliers; derive the saturation point
    and the 2×-saturation graceful-degradation verdict."""
    report = LoadReport(
        arrival_kind=spec.arrival.kind,
        base_rate_per_s=spec.arrival.rate_per_s,
        seed=spec.seed,
        scheduler_seed=spec.scheduler_seed,
    )
    for multiplier in spec.multipliers:
        report.cells.append(run_load_cell(spec, multiplier))
    best = max(report.cells, key=lambda cell: cell.served_rate_per_s)
    report.saturation_rate_per_s = best.served_rate_per_s
    report.saturation_multiplier = best.multiplier
    report.overload_cells = sum(
        1 for cell in report.cells
        if cell.offered_rate_per_s
        >= 2.0 * report.saturation_rate_per_s - 1e-9
    )
    return report
