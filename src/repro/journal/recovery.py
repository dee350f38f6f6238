"""Crash recovery: replay the reservation journal against live ledgers.

After a QoS-manager crash the in-memory negotiation state is gone but
two things survive: the resource ledgers on the media servers and the
transport system (the *remote* side of steps 5–6), and the write-ahead
journal (the *durable* side).  :class:`RecoveryManager` reconciles the
two.  Each holder's record timeline classifies it:

* **orphaned** — an ``INTENT`` with no ``RESERVED``: the crash hit
  mid-commit.  Whatever partial resources the holder's walk acquired
  are found by ledger scan and released (compensation).
* **awaiting confirmation** — ``RESERVED`` without a terminal record:
  step 6 was in flight.  The holder's :class:`~repro.core.commitment.Commitment`
  is resumed from the record; if the ``choicePeriod`` deadline already
  passed during the outage it expires now, otherwise its watchdog is
  re-armed on the shared clock.
* **confirmed and playing** — last record ``CONFIRMED`` or
  ``ADAPT_SWITCH``: the session's resources are preserved and the
  holder is handed to the session supervisor for heartbeat watch.
* **terminal** — ``RELEASED``/``EXPIRED``: the transition was journaled
  but the crash may have struck before the ledgers were updated
  (append-before-apply), so any leftovers are redone now.

The replay is idempotent: every action it takes is itself journaled, so
running recovery twice — or after a lease reaper already collected a
holder — releases nothing twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..util.clock import ManualClock
from ..util.tables import render_table
from .records import ACTIVE_TYPES, JournalRecord, JournalRecordType
from .store import ReservationJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cmfs.server import MediaServer
    from ..core.commitment import Commitment, ReservationBundle
    from ..network.transport import TransportSystem
    from ..session.engine import EventLoop
    from ..session.supervisor import SessionSupervisor
    from ..telemetry import Telemetry

__all__ = [
    "HolderOutcome",
    "RecoveryReport",
    "RecoveryManager",
]


class HolderOutcome:
    """String constants naming what recovery did with one holder."""

    ORPHAN_RELEASED = "orphan-released"
    EXPIRED_RELEASED = "expired-released"
    REARMED = "rearmed"
    ACTIVE = "active"
    REDO_RELEASED = "redo-released"
    CLEAN = "clean"


@dataclass(slots=True)
class RecoveryReport:
    """Reconciliation summary of one journal replay."""

    holders: int = 0
    orphans_released: int = 0
    expired_released: int = 0
    rearmed: int = 0
    active_sessions: int = 0
    redo_released: int = 0
    clean: int = 0
    streams_released: int = 0
    flows_released: int = 0
    torn_records_dropped: int = 0
    leaked_streams: int = 0
    leaked_flows: int = 0
    leaked_bps: float = 0.0
    outcomes: "dict[str, str]" = field(default_factory=dict)
    pending: "dict[str, Commitment]" = field(default_factory=dict)

    @property
    def leak_free(self) -> bool:
        """No reservation survives without a live (confirmed or
        re-armed) holder — the zero-leak reconciliation property."""
        return self.leaked_streams == 0 and self.leaked_flows == 0

    def rows(self) -> "list[tuple[str, str]]":
        rows = [
            ("holders reconciled", str(self.holders)),
            ("  orphans compensated", str(self.orphans_released)),
            ("  expired during outage", str(self.expired_released)),
            ("  choicePeriod re-armed", str(self.rearmed)),
            ("  confirmed sessions preserved", str(self.active_sessions)),
            ("  terminal redo releases", str(self.redo_released)),
            ("  already clean", str(self.clean)),
            ("streams released", str(self.streams_released)),
            ("flows released", str(self.flows_released)),
            ("torn records dropped", str(self.torn_records_dropped)),
            (
                "leaks after reconciliation",
                "none"
                if self.leak_free
                else f"{self.leaked_streams} streams, {self.leaked_flows} "
                     f"flows, {self.leaked_bps / 1e6:.1f} Mbps",
            ),
        ]
        return rows

    def render(self) -> str:
        return render_table(
            ("metric", "value"), self.rows(), title="crash-recovery report"
        )


class RecoveryManager:
    """Replays the reservation journal after a manager crash.

    Every record it appends and every release it makes goes through one
    :class:`~repro.core.commitment.ResourceCommitter` over the surviving
    ledgers, so step 6 has one implementation, live or recovered."""

    def __init__(
        self,
        journal: ReservationJournal,
        servers: "Mapping[str, MediaServer]",
        transport: "TransportSystem",
        *,
        clock: "ManualClock | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        # Imported here: repro.core imports this package.
        from ..core.commitment import ResourceCommitter

        self.journal = journal
        self.committer = ResourceCommitter(
            transport, servers, clock=clock, journal=journal,
            telemetry=telemetry,
        )
        self.telemetry = self.committer.telemetry

    def _count_freed(
        self, bundle: "ReservationBundle", report: RecoveryReport
    ) -> None:
        """Count what of a released ``bundle`` is gone: a release a
        fault hook swallowed frees nothing."""
        streams, flows = self.committer.held(bundle)
        report.streams_released += len(bundle.streams) - streams
        report.flows_released += len(bundle.flows) - flows

    # -- the replay ----------------------------------------------------------------

    def replay(
        self,
        *,
        loop: "EventLoop | None" = None,
        supervisor: "SessionSupervisor | None" = None,
    ) -> RecoveryReport:
        """Classify every holder, redo/compensate releases, re-arm
        pending deadlines, hand confirmed sessions to ``supervisor``,
        and audit the ledgers for leaks."""
        now = self.committer.clock.now()
        report = RecoveryReport(
            torn_records_dropped=self.journal.torn_records_dropped
        )
        # Snapshot: recovery appends its own records while iterating.
        grouped = self.journal.by_holder()
        with self.telemetry.span(
            "journal.replay", records=len(self.journal), holders=len(grouped)
        ):
            for holder, timeline in grouped.items():
                report.holders += 1
                outcome = self._reconcile_holder(
                    holder, timeline, now, report,
                    loop=loop, supervisor=supervisor,
                )
                report.outcomes[holder] = outcome
            self._audit(report)
            self.telemetry.annotate(
                leak_free=report.leak_free,
                streams_released=report.streams_released,
                flows_released=report.flows_released,
            )
        self.telemetry.count("recovery.replays")
        for outcome in report.outcomes.values():
            self.telemetry.count("recovery.holders", outcome=outcome)
        return report

    def _reconcile_holder(
        self,
        holder: str,
        timeline: "list[JournalRecord]",
        now: float,
        report: RecoveryReport,
        *,
        loop: "EventLoop | None",
        supervisor: "SessionSupervisor | None",
    ) -> str:
        last = timeline[-1]
        reserved = next(
            (
                r
                for r in reversed(timeline)
                if r.record_type is JournalRecordType.RESERVED
            ),
            None,
        )
        if last.is_terminal:
            return self._redo_terminal(holder, reserved, report)
        if last.record_type in ACTIVE_TYPES:
            return self._hand_to_supervisor(
                holder, reserved, now, report, supervisor=supervisor
            )
        if last.record_type is JournalRecordType.RESERVED:
            return self._rearm_or_expire(last, now, report, loop=loop)
        # INTENT only: the crash hit inside the step-5 walk.  Journal
        # the compensation first (append-before-apply), then sweep the
        # ledgers for whatever the walk had already taken.
        committer = self.committer
        committer.journal_event(
            JournalRecordType.RELEASED, holder, {"reason": "recovery-orphan"}
        )
        bundle = committer.rebuild(holder)
        committer.release(bundle)
        self._count_freed(bundle, report)
        report.orphans_released += 1
        return HolderOutcome.ORPHAN_RELEASED

    def _redo_terminal(
        self,
        holder: str,
        reserved: "JournalRecord | None",
        report: RecoveryReport,
    ) -> str:
        bundle = self.committer.rebuild(
            holder, None if reserved is None else reserved.payload
        )
        if not (bundle.streams or bundle.flows):
            report.clean += 1
            return HolderOutcome.CLEAN
        self.committer.release(bundle)
        self._count_freed(bundle, report)
        report.redo_released += 1
        return HolderOutcome.REDO_RELEASED

    def _rearm_or_expire(
        self,
        reserved: JournalRecord,
        now: float,
        report: RecoveryReport,
        *,
        loop: "EventLoop | None",
    ) -> str:
        commitment = self.committer.resume(reserved)
        if commitment.expire_check(now):
            self._count_freed(commitment.bundle, report)
            report.expired_released += 1
            return HolderOutcome.EXPIRED_RELEASED
        report.rearmed += 1
        report.pending[reserved.holder] = commitment
        if loop is not None:
            commitment.watch(loop)
        return HolderOutcome.REARMED

    def _hand_to_supervisor(
        self,
        holder: str,
        reserved: "JournalRecord | None",
        now: float,
        report: RecoveryReport,
        *,
        supervisor: "SessionSupervisor | None",
    ) -> str:
        report.active_sessions += 1
        if supervisor is not None:
            committer = self.committer
            payload = None if reserved is None else reserved.payload

            def release(_when: float) -> None:
                # The supervisor sweeps on the shared clock, which is
                # what the committer stamps the record with.
                committer.journal_event(
                    JournalRecordType.RELEASED, holder,
                    {"reason": "supervisor-timeout"},
                )
                committer.release(committer.rebuild(holder, payload))

            supervisor.adopt(holder, release, now=now)
        return HolderOutcome.ACTIVE

    # -- audit ---------------------------------------------------------------------

    def _audit(self, report: RecoveryReport) -> None:
        """Every remaining reservation must belong to a holder recovery
        classified as live (confirmed/adopted or re-armed)."""
        live = {
            holder
            for holder, outcome in report.outcomes.items()
            if outcome in (HolderOutcome.ACTIVE, HolderOutcome.REARMED)
        }
        for server in self.committer.servers.values():
            for stream in server.reservations():
                if stream.holder not in live:
                    report.leaked_streams += 1
                    report.leaked_bps += stream.rate_bps
        for flow in self.committer.transport.flows():
            if flow.holder not in live:
                report.leaked_flows += 1
                report.leaked_bps += flow.reserved_bps
