"""Chaos scenario: negotiation + playout under a fault plan.

The chaos runner builds a deployment with the full resilience stack
enabled (retry policy, circuit breaker, leases), installs a
:class:`~repro.faults.FaultInjector` for the given plan, submits a
stream of negotiation requests, plays the committed sessions out to
completion under the injected failures, and reports blocking and
recovery metrics — including a final leak audit of every server ledger
and the transport system.

Everything is seeded, so one :class:`ChaosSpec` always produces the
same :class:`ChaosReport` — the property the chaos integration tests
assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..util.errors import ConfirmationTimeout, SimulationError
from ..util.tables import render_table
from .run import (
    SUPERVISOR_TIMEOUT_S,
    TIMESERIES_INTERVAL_S,
    Artifacts,
    SessionRunReport,
    drain,
    inject,
    resilient_scenario,
    stock_profile,
    supervise,
)
from .scenario import Scenario, ScenarioSpec

__all__ = ["ChaosSpec", "ChaosReport", "run_chaos"]

# A chaos run holds a handful of sessions, so it can afford to sweep
# often: the QoS monitor every second, the supervisor every five.
MONITOR_PERIOD_S = 1.0
SUPERVISOR_PERIOD_S = 5.0


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """One reproducible chaos run."""

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    plan: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 1
    requests: int = 4
    request_spacing_s: float = 5.0
    profile_name: str = "balanced"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lease_ttl_s: float = 120.0
    telemetry_seed: "int | None" = None  # None = observability off
    telemetry_jsonl: "str | None" = None  # trace JSONL output path

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise SimulationError("need at least one request")
        if self.request_spacing_s < 0:
            raise SimulationError("request_spacing_s must be non-negative")


@dataclass(slots=True)
class ChaosReport(SessionRunReport):
    """Blocking + recovery metrics of one chaos run."""

    recovered_orphans: int = 0
    recovered_expired: int = 0
    recovered_rearmed: int = 0
    recovered_redo: int = 0

    def rows(self) -> list[tuple[str, str]]:
        rows = [
            ("negotiations", str(self.negotiations)),
            ("  succeeded", str(self.succeeded)),
            ("  degraded to alternate offer", str(self.degraded_offers)),
            ("  blocked (try later)", str(self.blocked)),
            ("commit attempts", str(self.commit_attempts)),
            ("retries (backoff)", str(self.retries)),
            ("offers skipped by breaker", str(self.breaker_skips)),
            ("breaker opens", str(self.breaker_opens)),
            ("adaptations", str(self.adaptations)),
            ("failed adaptations", str(self.failed_adaptations)),
            ("interruptions", str(self.interruptions)),
            ("sessions completed", str(self.completed_sessions)),
            ("sessions aborted", str(self.aborted_sessions)),
            ("leases reaped", str(self.leases_reaped)),
        ]
        if self.manager_crashes:
            rows.extend(
                [
                    ("manager crashes", str(self.manager_crashes)),
                    ("journal replays", str(self.recoveries)),
                    ("  orphans compensated", str(self.recovered_orphans)),
                    ("  expired during outage", str(self.recovered_expired)),
                    ("  choicePeriod re-armed", str(self.recovered_rearmed)),
                    ("  sessions preserved", str(self.recovered_active)),
                    ("  terminal redo releases", str(self.recovered_redo)),
                    ("supervisor releases", str(self.supervisor_releases)),
                    ("journal records", str(self.journal_records)),
                ]
            )
        rows.extend(self.fault_rows())
        rows.append(("leaks at teardown", self.leak_text()))
        if self.retry_after_hints:
            hints = ", ".join(f"{h:g}s" for h in self.retry_after_hints)
            rows.append(("retry-after hints", hints))
        return rows

    def render(self) -> str:
        return render_table(
            ("metric", "value"), self.rows(), title="chaos run report"
        )


def run_chaos(spec: ChaosSpec) -> "tuple[ChaosReport, Scenario]":
    """Execute one chaos run; returns the report and the (now spent)
    scenario for further inspection."""
    profile = stock_profile(spec.profile_name)
    scenario = resilient_scenario(
        spec.scenario,
        retry=spec.retry,
        lease_ttl_s=spec.lease_ttl_s,
        seed=spec.seed,
        telemetry_seed=spec.telemetry_seed,
    )
    artifacts = Artifacts(
        scenario,
        trace_jsonl=spec.telemetry_jsonl,
        interval_s=TIMESERIES_INTERVAL_S,
        # The submission window plus the supervisor's patience;
        # everything after that is drain.
        until=(
            scenario.loop.now
            + spec.requests * spec.request_spacing_s
            + SUPERVISOR_TIMEOUT_S
        ),
    )
    injector = inject(
        scenario, spec.plan, attempt_timeout_s=spec.retry.attempt_timeout_s
    )
    runtime = scenario.runtime(monitor_period_s=MONITOR_PERIOD_S)
    supervisor = supervise(scenario, runtime, period_s=SUPERVISOR_PERIOD_S)
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    report = ChaosReport()

    def submit(index: int) -> None:
        client = clients[index % len(clients)]
        result = scenario.manager.negotiate(
            documents[index % len(documents)], profile, client
        )
        report.record(result)
        if not result.status.reserves_resources:
            return
        try:
            runtime.start_session(result, profile, client)
        except ConfirmationTimeout:
            pass  # choicePeriod elapsed; reservation already returned

    for index in range(spec.requests):
        scenario.loop.at(
            scenario.loop.now + index * spec.request_spacing_s,
            lambda i=index: submit(i),
            label=f"chaos-request-{index + 1}",
        )
    replays = drain(scenario, runtime, supervisor)

    report.finish(scenario, runtime, supervisor, injector, replays)
    for replay in replays:
        report.recovered_orphans += replay.orphans_released
        report.recovered_expired += replay.expired_released
        report.recovered_rearmed += replay.rearmed
        report.recovered_redo += replay.redo_released
    report.timeline = artifacts.finish()
    return report, scenario
