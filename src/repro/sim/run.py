"""The run skeleton: everything between "build the deployment" and
"read the report", written once.

Every scenario runner (:mod:`~repro.sim.chaos`, :mod:`~repro.sim.storm`,
:mod:`~repro.sim.recover`, :mod:`~repro.sim.load`) and the CLI wire the
same deployment: a stock profile, optionally the resilience stack
(retry, breaker, leases, journal), the observability artifacts (trace
JSONL, flight recorder), a fault injector, the manager-restart
procedure, and a teardown audit.  A runner is a *spec* (what to build,
what to inject) plus a *driver* (what to submit, what to tally); the
wiring lives here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cmfs.disk import DiskModel
from ..core.profile_manager import ProfileManager
from ..core.profiles import UserProfile
from ..core.status import NegotiationStatus
from ..faults.health import CircuitBreaker
from ..faults.injector import FaultInjector
from ..faults.lease import LeaseManager
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..journal import (
    HolderOutcome,
    RecoveryManager,
    RecoveryReport,
    ReservationJournal,
)
from ..session.runtime import SessionRuntime
from ..session.supervisor import SessionSupervisor
from ..telemetry import JsonlSpanExporter
from ..telemetry.timeseries import FlightRecorder
from ..util.errors import ManagerCrashError, SimulationError
from .scenario import Scenario, ScenarioSpec, build_scenario

__all__ = [
    "SUPERVISOR_TIMEOUT_S",
    "TIMESERIES_INTERVAL_S",
    "stock_profile",
    "storm_scale_deployment",
    "resilient_scenario",
    "supervise",
    "Artifacts",
    "inject",
    "replay_journal",
    "readopt_sessions",
    "drain",
    "reserved_now",
    "RunReport",
    "SessionRunReport",
]


def stock_profile(name: str) -> UserProfile:
    """The stock user profile called ``name``.  Runners call this
    before building anything, so a typo costs no deployment."""
    profiles = ProfileManager()
    if name not in profiles:
        raise SimulationError(
            f"unknown profile {name!r}; have {profiles.names()}"
        )
    return profiles.get(name)


def storm_scale_deployment(
    *,
    servers: int,
    clients: int,
    documents: int,
    document_duration_s: float,
    max_streams_per_server: int,
) -> ScenarioSpec:
    """A deployment that holds hundreds of concurrent sessions: fat
    links, lean two-stream articles, and a mid-2000s striped array in
    place of the CITR-era single Barracuda, whose per-stream overhead
    caps a server at ~40 streams."""
    return ScenarioSpec(
        server_count=servers,
        client_count=clients,
        document_count=documents,
        backbone_bps=2_500_000_000.0,
        server_access_bps=700_000_000.0,
        client_access_bps=155_000_000.0,
        document_duration_s=document_duration_s,
        max_streams_per_server=max_streams_per_server,
        disk=DiskModel(
            transfer_rate_bps=600_000_000.0,
            avg_seek_s=0.001,
            rotational_latency_s=0.0005,
            round_s=0.5,
        ),
        lean_documents=True,
    )


def resilient_scenario(
    deployment: ScenarioSpec,
    *,
    retry: RetryPolicy,
    lease_ttl_s: float,
    seed: int,
    telemetry_seed: "int | None",
) -> Scenario:
    """Build ``deployment`` with the full resilience stack: ``retry``,
    a circuit breaker (3 consecutive failures open it for 30 s, the
    breaker's own defaults), leases of ``lease_ttl_s`` and an in-memory
    journal.  The breaker and the journal are reachable as
    ``scenario.manager.committer.health`` / ``.journal``."""
    return build_scenario(
        deployment,
        retry_policy=retry,
        health=CircuitBreaker(),
        lease_ttl_s=lease_ttl_s,
        retry_seed=seed,
        journal=ReservationJournal(),
        telemetry_seed=telemetry_seed,
    )


# How long a supervised run (chaos, storm, recover) waits for a silent
# holder's heartbeat before releasing it, and how often the chaos and
# storm runs sample their flight recorder.
SUPERVISOR_TIMEOUT_S = 60.0
TIMESERIES_INTERVAL_S = 1.0


def supervise(
    scenario: Scenario, runtime: SessionRuntime, **sweep
) -> SessionSupervisor:
    """A heartbeat supervisor over ``runtime`` on the scenario's clock
    and telemetry hub, patient for ``SUPERVISOR_TIMEOUT_S`` (``sweep``:
    its ``period_s``)."""
    return SessionSupervisor(
        clock=scenario.clock,
        runtime=runtime,
        telemetry=scenario.telemetry,
        heartbeat_timeout_s=SUPERVISOR_TIMEOUT_S,
        **sweep,
    )


class Artifacts:
    """The observability outputs of one run: the trace JSONL exporter
    and the flight recorder.

    Inert on a deployment without telemetry.  ``interval_s`` arms a
    :class:`~repro.telemetry.timeseries.FlightRecorder` sampling until
    the simulated instant ``until`` — the run's active phase; the loop
    runs to exhaustion, an unbounded periodic tick never exhausts, and
    :meth:`finish` captures the settled end state.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        trace_jsonl: "str | None" = None,
        interval_s: "float | None" = None,
        until: "float | None" = None,
    ) -> None:
        self._clock = scenario.clock
        self.exporter: "JsonlSpanExporter | None" = None
        self.recorder: "FlightRecorder | None" = None
        telemetry = scenario.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        if trace_jsonl is not None:
            self.exporter = JsonlSpanExporter(trace_jsonl)
            telemetry.tracer.add_exporter(self.exporter)
        if interval_s is not None:
            self.recorder = FlightRecorder(telemetry, interval_s=interval_s)
            self.recorder.arm(scenario.loop, until=until)

    def finish(self) -> "dict[str, object]":
        """Take the final sample and close the trace file; returns the
        recorded timeline (``{}`` when nothing was recorded)."""
        timeline: "dict[str, object]" = {}
        if self.recorder is not None:
            self.recorder.finish(self._clock.now())
            timeline = self.recorder.as_dict()
        if self.exporter is not None:
            self.exporter.close()
        return timeline


def inject(
    scenario: Scenario, plan: FaultPlan, *, attempt_timeout_s: float = 1.0
) -> FaultInjector:
    """Install ``plan`` on the fleet, the transport and the journal,
    and schedule its timed faults on the scenario's loop."""
    injector = FaultInjector(
        plan, clock=scenario.clock, attempt_timeout_s=attempt_timeout_s
    )
    injector.install(scenario.servers, scenario.transport)
    injector.install_journal(scenario.manager.committer.journal)
    injector.arm(scenario.loop)
    return injector


# -- the manager restart ------------------------------------------------------------


def replay_journal(
    scenario: Scenario, supervisor: SessionSupervisor
) -> RecoveryReport:
    """Simulated manager restart, first half: volatile state (leases,
    in-flight negotiations) is gone; the journal and the ledgers are
    what survive, and the journal is replayed against them.

    The journal's crash hook is off during the replay and only then:
    recovery's own appends are not crash opportunities (it must not be
    re-killed mid-replay by the plan that killed the manager), but
    everything after it — starting with the re-adoption below — is
    ordinary manager work and is.
    """
    committer = scenario.manager.committer
    journal = committer.journal
    if committer.leases is not None:
        committer.leases = LeaseManager(ttl_s=committer.leases.ttl_s)
    recovery = RecoveryManager(
        journal,
        scenario.servers,
        scenario.transport,
        clock=scenario.clock,
        telemetry=scenario.telemetry,
    )
    crash_hook, journal.crash_hook = journal.crash_hook, None
    try:
        return recovery.replay(loop=scenario.loop, supervisor=supervisor)
    finally:
        journal.crash_hook = crash_hook


def readopt_sessions(
    scenario: Scenario,
    runtime: SessionRuntime,
    supervisor: SessionSupervisor,
    replay: RecoveryReport,
) -> "tuple[str, ...]":
    """Manager restart, second half: reconcile the runtime against the
    replay and re-arm the supervisor; returns the preserved holders.

    Playouts whose journal timeline is still active survived the crash
    (client and servers kept streaming): they are watched by progress
    instead of waiting for an explicit heartbeat the simulated client
    never sends.  A session the journal already closed — the crash
    struck mid-teardown, after RELEASED was journaled — is stale and is
    finalized now, or it would pin the monitor sweep forever.
    """
    preserved: "list[str]" = []
    for session in list(runtime.sessions.values()):
        if replay.outcomes.get(session.holder) == HolderOutcome.ACTIVE:
            supervisor.forget(session.holder)
            supervisor.watch(session)
            preserved.append(session.holder)
        else:
            runtime.abort_session(session)
    supervisor.arm(scenario.loop)
    return tuple(preserved)


def drain(
    scenario: Scenario,
    runtime: SessionRuntime,
    supervisor: SessionSupervisor,
) -> "list[RecoveryReport]":
    """Run the loop to exhaustion, restarting the manager after every
    injected crash; returns one replay report per restart.

    The final reaping pass collects the zombies left by releases that
    were swallowed while their fault window was still open.
    """
    replays: "list[RecoveryReport]" = []
    while True:
        try:
            scenario.loop.run()
            break
        except ManagerCrashError:
            replay = replay_journal(scenario, supervisor)
            readopt_sessions(scenario, runtime, supervisor, replay)
            replays.append(replay)
    scenario.manager.committer.reap_expired(scenario.clock.now())
    return replays


# -- reports ------------------------------------------------------------------------


def reserved_now(scenario: Scenario) -> "tuple[int, int, float]":
    """``(streams, flows, link bps)`` reserved at this instant: the
    leaks when read at teardown, the stranded capacity when read at a
    crash."""
    return (
        sum(server.stream_count for server in scenario.servers.values()),
        scenario.transport.flow_count,
        scenario.topology.total_reserved_bps(),
    )


@dataclass(slots=True)
class RunReport:
    """What every run reports: the verdict mix, the journal size, the
    recorded timeline and the teardown leak audit."""

    statuses: "dict[str, int]" = field(default_factory=dict)
    journal_records: int = 0
    timeline: "dict[str, object]" = field(default_factory=dict)
    leaked_streams: int = 0
    leaked_flows: int = 0
    leaked_bps: float = 0.0

    @property
    def clean_teardown(self) -> bool:
        """No stream, flow or link bandwidth left reserved at the end."""
        return (
            self.leaked_streams == 0
            and self.leaked_flows == 0
            and self.leaked_bps == 0.0
        )

    def leak_text(self) -> str:
        if self.clean_teardown:
            return "none"
        return (
            f"{self.leaked_streams} streams, {self.leaked_flows} "
            f"flows, {self.leaked_bps / 1e6:.1f} Mbps"
        )

    def audit(self, scenario: Scenario) -> None:
        """Read the ledgers and the journal at teardown."""
        (
            self.leaked_streams, self.leaked_flows, self.leaked_bps,
        ) = reserved_now(scenario)
        journal = scenario.manager.committer.journal
        self.journal_records = 0 if journal is None else len(journal)


@dataclass(slots=True)
class SessionRunReport(RunReport):
    """A run that negotiates, plays the sessions out and may restart
    the manager: the fields the chaos and storm reports share."""

    negotiations: int = 0
    succeeded: int = 0
    degraded_offers: int = 0   # FAILEDWITHOFFER: alternate accepted
    blocked: int = 0           # FAILEDTRYLATER delivered to the caller
    retry_after_hints: "tuple[float, ...]" = ()
    commit_attempts: int = 0
    retries: int = 0
    breaker_skips: int = 0
    breaker_opens: int = 0
    adaptations: int = 0
    failed_adaptations: int = 0
    interruptions: int = 0
    completed_sessions: int = 0
    aborted_sessions: int = 0
    leases_reaped: int = 0
    manager_crashes: int = 0
    recoveries: int = 0
    recovered_active: int = 0
    supervisor_releases: int = 0
    fault_stats: "dict[str, float]" = field(default_factory=dict)

    def record(self, result) -> None:
        """Tally one delivered verdict."""
        self.negotiations += 1
        status = result.status
        self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
        if status is NegotiationStatus.SUCCEEDED:
            self.succeeded += 1
        elif status is NegotiationStatus.FAILED_WITH_OFFER:
            self.degraded_offers += 1
        elif status is NegotiationStatus.FAILED_TRY_LATER:
            self.blocked += 1
            if result.retry_after_s is not None:
                self.retry_after_hints += (result.retry_after_s,)

    def finish(
        self,
        scenario: Scenario,
        runtime: SessionRuntime,
        supervisor: SessionSupervisor,
        injector: FaultInjector,
        replays: "list[RecoveryReport]",
    ) -> None:
        """Tally the finished sessions and read the committer, breaker,
        supervisor, injector and restart counters out; then audit."""
        for session in runtime.finished:
            record = session.record
            self.adaptations += record.adaptations
            self.failed_adaptations += record.failed_adaptations
            self.interruptions += record.interruptions
            if record.completed:
                self.completed_sessions += 1
            if record.aborted:
                self.aborted_sessions += 1
        committer = scenario.manager.committer
        self.commit_attempts = committer.stats.attempts
        self.retries = committer.stats.retries
        self.breaker_skips = committer.stats.breaker_skips
        self.breaker_opens = committer.health.opens
        self.leases_reaped = committer.stats.leases_reaped
        self.manager_crashes = self.recoveries = len(replays)
        self.recovered_active = sum(r.active_sessions for r in replays)
        self.supervisor_releases = supervisor.stats.sessions_released
        self.fault_stats = injector.stats.as_dict()
        self.audit(scenario)

    def fault_rows(self) -> "list[tuple[str, str]]":
        return [
            (f"fault: {name}", f"{value:g}")
            for name, value in sorted(self.fault_stats.items())
            if value
        ]
