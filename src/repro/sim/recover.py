"""Crash/recovery scenario: kill the manager mid-negotiation, replay.

The demo behind ``python -m repro recover``: a deployment negotiates a
stream of requests while a :class:`~repro.faults.plan.FaultKind.MANAGER_CRASH`
fault kills the QoS manager at a chosen crash opportunity (a journal
append or an admission call — the realistic death points of steps 5–6).
Phase two simulates the restart: the write-ahead journal — reopened
from disk when file-backed, exercising the torn-tail reader — is
replayed by a :class:`~repro.journal.RecoveryManager` against the
surviving server/transport ledgers, and the report proves the
reconciliation: orphans compensated, pending ``choicePeriod`` deadlines
re-armed, confirmed sessions preserved, zero leaked capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..journal import RecoveryReport, ReservationJournal
from ..util.errors import ConfirmationTimeout, ManagerCrashError, SimulationError
from ..util.tables import render_table
from .run import (
    Artifacts,
    inject,
    readopt_sessions,
    replay_journal,
    reserved_now,
    stock_profile,
    supervise,
)
from .scenario import Scenario, ScenarioSpec, build_scenario

__all__ = ["CrashRecoverySpec", "CrashRecoveryReport", "run_crash_recovery"]


@dataclass(frozen=True, slots=True)
class CrashRecoverySpec:
    """One reproducible crash + recovery run."""

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    seed: int = 1
    requests: int = 3
    request_spacing_s: float = 5.0
    profile_name: str = "balanced"
    crash_opportunity: int = 4
    journal_path: "str | Path | None" = None
    telemetry_seed: "int | None" = None  # None = observability off
    telemetry_jsonl: "str | None" = None  # trace JSONL output path

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise SimulationError("need at least one request")
        if self.request_spacing_s < 0:
            raise SimulationError("request_spacing_s must be non-negative")
        if self.crash_opportunity < 1:
            raise SimulationError("crash_opportunity must be >= 1")


@dataclass(slots=True)
class CrashRecoveryReport:
    """Before/after evidence of one crash + journal replay."""

    crashed: bool = False
    crash_time_s: float = 0.0
    negotiations_before_crash: int = 0
    confirmed_before_crash: int = 0
    negotiations_after_recovery: int = 0
    journal_records: int = 0
    stranded_streams: int = 0
    stranded_flows: int = 0
    stranded_bps: float = 0.0
    recovery: "RecoveryReport | None" = None
    preserved_holders: "tuple[str, ...]" = ()
    post_reserved_bps: float = 0.0
    journal_timeline: str = ""

    @property
    def leak_free(self) -> bool:
        return self.recovery is not None and self.recovery.leak_free

    def render(self) -> str:
        rows = [
            ("manager crashed", "yes" if self.crashed else "no"),
            ("crash time", f"t={self.crash_time_s:g}s"),
            ("negotiations before crash", str(self.negotiations_before_crash)),
            ("  confirmed and playing", str(self.confirmed_before_crash)),
            (
                "negotiations after recovery",
                str(self.negotiations_after_recovery),
            ),
            ("journal records at crash", str(self.journal_records)),
            (
                "stranded at crash",
                f"{self.stranded_streams} streams, {self.stranded_flows} "
                f"flows, {self.stranded_bps / 1e6:.1f} Mbps",
            ),
        ]
        out = render_table(
            ("metric", "value"), rows, title="crash phase"
        )
        if self.recovery is not None:
            preserved = ", ".join(self.preserved_holders) or "(none)"
            out += "\n" + self.recovery.render()
            out += f"\npreserved sessions: {preserved}"
            out += (
                f"\nreserved after recovery: "
                f"{self.post_reserved_bps / 1e6:.1f} Mbps"
            )
        return out


def run_crash_recovery(
    spec: "CrashRecoverySpec | None" = None,
) -> "tuple[CrashRecoveryReport, Scenario]":
    """Run the two-phase crash/recovery scenario."""
    spec = spec or CrashRecoverySpec()
    profile = stock_profile(spec.profile_name)

    if spec.journal_path is not None:
        journal = ReservationJournal.open(spec.journal_path)
    else:
        journal = ReservationJournal()
    scenario = build_scenario(
        spec.scenario, journal=journal, telemetry_seed=spec.telemetry_seed
    )
    artifacts = Artifacts(scenario, trace_jsonl=spec.telemetry_jsonl)
    injector = inject(scenario, FaultPlan(
        faults=(
            FaultSpec(
                kind=FaultKind.MANAGER_CRASH,
                target_id="manager",
                value=float(spec.crash_opportunity),
            ),
        ),
        seed=spec.seed,
    ))
    runtime = scenario.runtime()
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    report = CrashRecoveryReport()

    def submit(index: int) -> None:
        client = clients[index % len(clients)]
        result = scenario.manager.negotiate(
            documents[index % len(documents)], profile, client
        )
        if report.crashed:
            # The restarted manager keeps serving requests that were
            # still queued when the old process died.
            report.negotiations_after_recovery += 1
        else:
            report.negotiations_before_crash += 1
        if not result.status.reserves_resources:
            return
        commitment = result.commitment
        assert commitment is not None
        if index == spec.requests - 1:
            # Leave the last negotiation awaiting user confirmation —
            # when the crash lands after it, its choicePeriod must
            # survive and be re-armed.  The §8 timer still runs.
            scenario.loop.at(
                commitment.deadline + 1e-3,
                lambda c=commitment: c.expire_check(scenario.clock.now()),
                label=f"choice-period:{commitment.bundle.holder}",
            )
            return
        try:
            runtime.start_session(result, profile, client)
            if not report.crashed:
                report.confirmed_before_crash += 1
        except ConfirmationTimeout:
            pass

    for index in range(spec.requests):
        scenario.loop.at(
            scenario.loop.now + index * spec.request_spacing_s,
            lambda i=index: submit(i),
            label=f"recover-request-{index + 1}",
        )

    # Phase 1: negotiate until the injected crash kills the manager.
    try:
        scenario.loop.run()
    except ManagerCrashError:
        report.crashed = True
        report.crash_time_s = scenario.clock.now()
    injector.uninstall()

    report.journal_records = len(journal)
    (
        report.stranded_streams, report.stranded_flows, report.stranded_bps,
    ) = reserved_now(scenario)

    # Phase 2: the manager restarts.  A file-backed journal is reopened
    # from disk (the torn-tail reader runs here); the ledgers on the
    # servers and in the network are whatever the crash left behind.
    if spec.journal_path is not None:
        journal.close()
        journal = ReservationJournal.open(spec.journal_path)
        # The restarted manager journals to the reopened file, not the
        # handle that died with the old process.
        scenario.manager.committer.journal = journal
        journal.telemetry = scenario.telemetry
    supervisor = supervise(scenario, runtime)
    report.recovery = replay_journal(scenario, supervisor)
    report.preserved_holders = readopt_sessions(
        scenario, runtime, supervisor, report.recovery
    )

    # Drain: re-armed deadlines expire, supervised playouts finish,
    # adopted-but-silent holders are released on heartbeat timeout.
    scenario.loop.run()
    report.post_reserved_bps = scenario.topology.total_reserved_bps()
    report.journal_timeline = journal.describe()
    if spec.journal_path is not None:
        journal.close()
    artifacts.finish()
    return report, scenario
