"""The storm scenario: a brownout at peak load, survived (or not).

Builds a storm-scale deployment — fast disks, lean two-stream articles,
hundreds of concurrent playouts — then browns out a server at peak
load and lets the :mod:`repro.storm` layer absorb the resulting mass
renegotiation: the :class:`~repro.storm.AdmissionGate` rate-limits and
sheds arriving requests honestly, the
:class:`~repro.storm.StormController` processes the violation flood in
class-batched waves.  With ``backpressure=False`` the same deployment
runs bare — every victim re-walks the full offer list on every monitor
sweep — so :func:`run_storm_comparison` can put a number on what the
thundering herd costs.

Everything is seeded and driven by the deterministic event loop: the
same :class:`StormSpec` produces the same :class:`StormReport` and the
same telemetry byte-for-byte, which is what the CI storm job diffs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from ..faults.plan import FaultPlan, FaultSpec
from ..faults.retry import RetryPolicy
from ..storm import AdmissionGate, GatePolicy, StormController
from ..telemetry.report import reconcile_journal
from ..util.errors import ConfirmationTimeout, SimulationError
from ..util.tables import render_table
from ..util.validation import check_fraction, check_positive
from .run import (
    SUPERVISOR_TIMEOUT_S,
    TIMESERIES_INTERVAL_S,
    Artifacts,
    SessionRunReport,
    drain,
    inject,
    resilient_scenario,
    stock_profile,
    storm_scale_deployment,
    supervise,
)
from .scenario import Scenario, ScenarioSpec, brownout_faults

__all__ = [
    "StormSpec",
    "StormReport",
    "StormComparison",
    "run_storm",
    "run_storm_comparison",
]

# The storm's deployment and traffic shape: 24 clients cycle over 8
# five-minute articles on servers that admit up to 256 streams each,
# and the initial arrivals are spread over the first minute.
CLIENTS = 24
DOCUMENTS = 8
DOCUMENT_DURATION_S = 300.0
MAX_STREAMS_PER_SERVER = 256
RAMP_S = 60.0
GATE = GatePolicy(rate_per_s=6.0, burst=24, queue_limit=96, retry_limit=4)
# The resilience stack under it.  With hundreds of sessions the sweeps
# run at half the chaos runner's frequency.
RETRY = RetryPolicy()
LEASE_TTL_S = 120.0
MONITOR_PERIOD_S = 2.0
SUPERVISOR_PERIOD_S = 10.0


@dataclass(frozen=True, slots=True)
class StormSpec:
    """One reproducible renegotiation storm."""

    sessions: int = 200
    late_requests: int = 40       # arrivals during the brownout itself
    servers: int = 3
    brownout_start_s: float = 90.0
    brownout_duration_s: float = 90.0
    severity: float = 0.4         # fraction of capacity lost
    target_servers: int = 1       # how many servers brown out
    seed: int = 1
    backpressure: bool = True     # False = bare deployment (the baseline)
    profile_name: str = "balanced"
    extra_faults: "tuple[FaultSpec, ...]" = ()
    telemetry_seed: "int | None" = None   # None = observability off
    telemetry_jsonl: "str | None" = None  # trace JSONL output path

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise SimulationError("need at least one session")
        if self.late_requests < 0:
            raise SimulationError("late_requests must be non-negative")
        if self.servers < 1:
            raise SimulationError("need at least one server")
        if self.target_servers < 1 or self.target_servers > self.servers:
            raise SimulationError(
                f"target_servers must be in 1..{self.servers}, "
                f"got {self.target_servers}"
            )
        check_fraction(self.severity, "severity")
        if self.severity == 0.0:
            raise SimulationError("severity 0 is not a storm")
        check_positive(self.brownout_duration_s, "brownout_duration_s")
        if self.brownout_start_s < 0:
            raise SimulationError("brownout_start_s must be non-negative")

    def deployment(self) -> ScenarioSpec:
        return storm_scale_deployment(
            servers=self.servers,
            clients=CLIENTS,
            documents=DOCUMENTS,
            document_duration_s=DOCUMENT_DURATION_S,
            max_streams_per_server=MAX_STREAMS_PER_SERVER,
        )

    def plan(self) -> FaultPlan:
        """The brownout window (per target server) plus any extras."""
        browns = brownout_faults(
            self.target_servers,
            start_s=self.brownout_start_s,
            duration_s=self.brownout_duration_s,
            severity=self.severity,
        )
        return FaultPlan(faults=browns + self.extra_faults, seed=self.seed)


@dataclass(slots=True)
class StormReport(SessionRunReport):
    """What one storm run did, end to end."""

    backpressure: bool = True
    sessions_started: int = 0
    stuck_sessions: int = 0       # still active when the loop drained
    degraded_time_s: float = 0.0
    gate: "dict[str, int]" = field(default_factory=dict)
    waves: "dict[str, int]" = field(default_factory=dict)
    journal_balanced: bool = True
    journal_open_holders: int = 0
    metrics_match: "bool | None" = None  # None = telemetry off
    duration_s: float = 0.0

    @property
    def survived(self) -> bool:
        """The storm-survival contract: every session terminal, no
        reservation leaks, journal closed, no request stuck in the
        gate."""
        return (
            self.stuck_sessions == 0
            and self.clean_teardown
            and self.journal_balanced
            and self.metrics_match is not False
        )

    def as_dict(self) -> "dict[str, object]":
        return {
            **asdict(self),
            "clean_teardown": self.clean_teardown,
            "survived": self.survived,
        }

    def rows(self) -> "list[tuple[str, str]]":
        rows = [
            ("backpressure", "on" if self.backpressure else "OFF"),
            ("negotiations", str(self.negotiations)),
            ("  succeeded", str(self.succeeded)),
            ("  degraded to alternate offer", str(self.degraded_offers)),
            ("  blocked / shed (try later)", str(self.blocked)),
            ("sessions started", str(self.sessions_started)),
            ("  completed", str(self.completed_sessions)),
            ("  aborted", str(self.aborted_sessions)),
            ("  stuck (non-terminal)", str(self.stuck_sessions)),
            ("adaptations", str(self.adaptations)),
            ("failed adaptations", str(self.failed_adaptations)),
            ("interruptions", str(self.interruptions)),
            ("degraded time", f"{self.degraded_time_s:.1f}s"),
            ("commit attempts", str(self.commit_attempts)),
            ("retries (backoff)", str(self.retries)),
            ("offers skipped by breaker", str(self.breaker_skips)),
            ("breaker opens", str(self.breaker_opens)),
            ("leases reaped", str(self.leases_reaped)),
        ]
        for name in (
            "admitted", "queued", "shed", "redispatched",
            "requeued_try_later", "max_queue_depth",
        ):
            if name in self.gate:
                rows.append((f"gate {name}", str(self.gate[name])))
        for name, value in sorted(self.waves.items()):
            rows.append((f"storm {name}", str(value)))
        if self.manager_crashes:
            rows.extend([
                ("manager crashes", str(self.manager_crashes)),
                ("journal replays", str(self.recoveries)),
                ("  sessions preserved", str(self.recovered_active)),
                ("supervisor releases", str(self.supervisor_releases)),
            ])
        rows.append(("journal records", str(self.journal_records)))
        rows.append((
            "journal audit",
            "balanced"
            if self.journal_balanced
            else f"{self.journal_open_holders} open holders",
        ))
        if self.metrics_match is not None:
            rows.append((
                "journal/metrics reconciliation",
                "match" if self.metrics_match else "MISMATCH",
            ))
        rows.extend(self.fault_rows())
        rows.append(("leaks at teardown", self.leak_text()))
        if self.retry_after_hints:
            sample = ", ".join(
                f"{h:g}s" for h in self.retry_after_hints[:6]
            )
            if len(self.retry_after_hints) > 6:
                sample += ", …"
            rows.append((
                "retry-after hints",
                f"{len(self.retry_after_hints)} issued ({sample})",
            ))
        rows.append(("simulated duration", f"{self.duration_s:.0f}s"))
        rows.append(("survived", "yes" if self.survived else "NO"))
        return rows

    def render(self) -> str:
        return render_table(
            ("metric", "value"), self.rows(), title="storm run report"
        )


@dataclass(slots=True)
class StormComparison:
    """Backpressure on vs off, same seed, same deployment."""

    with_backpressure: StormReport
    without_backpressure: StormReport

    @property
    def attempt_ratio(self) -> float:
        """How many more commitment attempts the bare deployment
        spends."""
        base = max(self.with_backpressure.commit_attempts, 1)
        return self.without_backpressure.commit_attempts / base

    @property
    def failed_adaptation_ratio(self) -> float:
        base = max(self.with_backpressure.failed_adaptations, 1)
        return self.without_backpressure.failed_adaptations / base

    @property
    def demonstrates_thrash(self) -> bool:
        """Does the bare run visibly thrash against the gated one?"""
        bare = self.without_backpressure
        gated = self.with_backpressure
        return (
            bare.commit_attempts > gated.commit_attempts
            and bare.failed_adaptations > gated.failed_adaptations
        )

    def as_dict(self) -> "dict[str, object]":
        return {
            "with_backpressure": self.with_backpressure.as_dict(),
            "without_backpressure": self.without_backpressure.as_dict(),
            "attempt_ratio": self.attempt_ratio,
            "failed_adaptation_ratio": self.failed_adaptation_ratio,
            "demonstrates_thrash": self.demonstrates_thrash,
        }

    def render(self) -> str:
        gated, bare = self.with_backpressure, self.without_backpressure
        rows = [
            ("commit attempts", str(gated.commit_attempts),
             str(bare.commit_attempts)),
            ("failed adaptations", str(gated.failed_adaptations),
             str(bare.failed_adaptations)),
            ("adaptations", str(gated.adaptations),
             str(bare.adaptations)),
            ("degraded time", f"{gated.degraded_time_s:.1f}s",
             f"{bare.degraded_time_s:.1f}s"),
            ("sessions completed", str(gated.completed_sessions),
             str(bare.completed_sessions)),
            ("blocked / shed", str(gated.blocked), str(bare.blocked)),
            ("survived", "yes" if gated.survived else "NO",
             "yes" if bare.survived else "NO"),
        ]
        table = render_table(
            ("metric", "backpressure on", "backpressure off"),
            rows,
            title="storm comparison",
        )
        verdict = (
            f"bare deployment spends {self.attempt_ratio:.1f}x the "
            f"commitment attempts and {self.failed_adaptation_ratio:.1f}x "
            "the failed adaptations"
        )
        return f"{table}\n{verdict}"


def run_storm(spec: StormSpec) -> "tuple[StormReport, Scenario]":
    """Execute one storm run; returns the report and the spent
    scenario."""
    profile = stock_profile(spec.profile_name)
    scenario = resilient_scenario(
        spec.deployment(),
        retry=RETRY,
        lease_ttl_s=LEASE_TTL_S,
        seed=spec.seed,
        telemetry_seed=spec.telemetry_seed,
    )
    # A browned-out machine must not trivially re-admit the very load
    # it just shed — admission respects the shrunken round budget.
    for server in scenario.servers.values():
        server.degradation_limits_admission = True
    artifacts = Artifacts(
        scenario,
        trace_jsonl=spec.telemetry_jsonl,
        interval_s=TIMESERIES_INTERVAL_S,
        # The storm's active phase: ramp, brownout window, and a
        # recovery margin.
        until=(
            max(RAMP_S, spec.brownout_start_s)
            + spec.brownout_duration_s
            + SUPERVISOR_TIMEOUT_S
        ),
    )
    injector = inject(
        scenario, spec.plan(), attempt_timeout_s=RETRY.attempt_timeout_s
    )
    runtime = scenario.runtime(monitor_period_s=MONITOR_PERIOD_S)
    supervisor = supervise(scenario, runtime, period_s=SUPERVISOR_PERIOD_S)
    gate = AdmissionGate(
        scenario.loop,
        policy=GATE,
        seed=spec.seed,
        telemetry=scenario.telemetry,
        enabled=spec.backpressure,
    )
    controller: "StormController | None" = None
    if spec.backpressure:
        controller = StormController(
            runtime, seed=spec.seed, telemetry=scenario.telemetry
        )
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    report = StormReport(backpressure=spec.backpressure)

    def deliver(result, client) -> None:
        report.record(result)
        if not result.status.reserves_resources:
            return
        try:
            runtime.start_session(result, profile, client)
            report.sessions_started += 1
        except ConfirmationTimeout:
            pass  # choicePeriod elapsed; reservation already returned

    def submit(index: int) -> None:
        client = clients[index % len(clients)]
        document = documents[index % len(documents)]
        gate.submit(
            f"req-{index + 1}",
            lambda: scenario.manager.negotiate(document, profile, client),
            lambda result, c=client: deliver(result, c),
        )

    spacing = RAMP_S / spec.sessions
    for index in range(spec.sessions):
        scenario.loop.at(
            index * spacing,
            lambda i=index: submit(i),
            label=f"storm-request-{index + 1}",
        )
    # Late joiners arrive while the brownout is biting: these are the
    # requests the gate queues or sheds (with honest hints).
    if spec.late_requests:
        late_spacing = (spec.brownout_duration_s / 2) / spec.late_requests
        for j in range(spec.late_requests):
            index = spec.sessions + j
            scenario.loop.at(
                spec.brownout_start_s + (j + 1) * late_spacing,
                lambda i=index: submit(i),
                label=f"storm-late-request-{j + 1}",
            )
    replays = drain(scenario, runtime, supervisor)

    report.finish(scenario, runtime, supervisor, injector, replays)
    for session in runtime.finished:
        report.degraded_time_s += session.record.degraded_time_s
    report.stuck_sessions = runtime.active_count
    report.gate = gate.stats.as_dict()
    if controller is not None:
        report.waves = controller.stats.as_dict()
    audit = reconcile_journal(
        scenario.manager.committer.journal,
        scenario.telemetry.metrics if scenario.telemetry is not None else None,
    )
    report.journal_balanced = bool(audit["balanced"])
    report.journal_open_holders = len(audit["open_holders"])
    report.metrics_match = (
        bool(audit["metrics_match"]) if "metrics_match" in audit else None
    )
    report.duration_s = scenario.clock.now()
    report.timeline = artifacts.finish()
    return report, scenario


def run_storm_comparison(spec: StormSpec) -> StormComparison:
    """Run the same storm twice — backpressure on, then off — from the
    same seed, and report both (the trace JSONL path, if any, belongs
    to the gated run)."""
    gated, _ = run_storm(replace(spec, backpressure=True))
    bare, _ = run_storm(
        replace(spec, backpressure=False, telemetry_jsonl=None)
    )
    return StormComparison(
        with_backpressure=gated, without_backpressure=bare
    )
