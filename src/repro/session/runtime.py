"""Session runtime: the active-phase loop.

Wires playout sessions, the QoS monitor and the adaptation manager onto
one event loop: a periodic monitoring sweep detects violations and runs
the §4 adaptation procedure for each affected session; completion events
finish sessions and release their resources.

This is the component the adaptation experiment (E9) and the
news-on-demand example drive.
"""

from __future__ import annotations

import itertools
from typing import Callable

from ..client.machine import ClientMachine
from ..core.adaptation import AdaptationManager, AdaptationStrategy
from ..core.negotiation import NegotiationResult, QoSManager
from ..core.profiles import UserProfile
from ..util.errors import SessionError
from .engine import EventLoop
from .monitor import QoSMonitor, Violation
from .playout import PlayoutSession, SessionState

__all__ = ["SessionRuntime"]


class SessionRuntime:
    """Owns the active sessions and the monitoring/adaptation loop."""

    def __init__(
        self,
        manager: QoSManager,
        loop: EventLoop,
        *,
        monitor_period_s: float = 1.0,
        transition_overhead_s: float = 2.0,
        adaptation_enabled: bool = True,
        adaptation_strategy: "AdaptationStrategy | None" = None,
        on_violation: "Callable[[Violation], None] | None" = None,
    ) -> None:
        if loop.clock is not manager.clock:
            raise SessionError(
                "the runtime's event loop must share the QoS manager's clock"
            )
        self.manager = manager
        self.loop = loop
        self.monitor = QoSMonitor(
            manager.committer.transport, manager.committer.servers
        )
        self.adaptation = AdaptationManager(
            manager,
            transition_overhead_s=transition_overhead_s,
            strategy=adaptation_strategy or AdaptationStrategy.BREAK_BEFORE_MAKE,
        )
        self.adaptation_enabled = adaptation_enabled
        self.monitor_period_s = monitor_period_s
        self.on_violation = on_violation
        self.telemetry = manager.telemetry
        self.sessions: dict[str, PlayoutSession] = {}
        self.finished: list[PlayoutSession] = []
        self._ids = itertools.count(1)
        self._monitoring_armed = False

    # -- session lifecycle ---------------------------------------------------------

    def start_session(
        self,
        result: NegotiationResult,
        profile: UserProfile,
        client: ClientMachine,
        *,
        duration_s: "float | None" = None,
        confirm: bool = True,
    ) -> PlayoutSession:
        """Confirm the commitment (unless already confirmed) and start
        playout now."""
        if result.commitment is None:
            raise SessionError("negotiation result holds no commitment")
        now = self.loop.now
        if confirm:
            result.commitment.confirm(now)
        if duration_s is None:
            duration_s = result.offer_space.document.duration_s  # type: ignore[union-attr]
        session = PlayoutSession(
            session_id=f"sess-{next(self._ids)}",
            result=result,
            profile=profile,
            client=client,
            started_at=now,
            duration_s=duration_s,
        )
        self.sessions[session.session_id] = session
        self.telemetry.count("session.started")
        self.telemetry.metrics.gauge_set(
            "sessions.active", float(len(self.sessions))
        )
        self._schedule_completion(session)
        self._arm_monitoring()
        return session

    def _schedule_completion(self, session: PlayoutSession) -> None:
        remaining = session.duration_s - session.position_at(self.loop.now)
        # A strictly positive floor keeps float roundoff from scheduling
        # a zero-delay event that re-observes the same position forever.
        self.loop.after(
            max(remaining, 1e-3),
            lambda: self._maybe_complete(session),
        )

    def _maybe_complete(self, session: PlayoutSession) -> None:
        if session.state in (SessionState.COMPLETED, SessionState.ABORTED):
            return
        now = self.loop.now
        if session.finished_by(now):
            session.complete(now)
            self._retire(session)
        else:
            # An adaptation pushed the position back (interruption);
            # re-arm the completion timer for the remaining playout.
            self._schedule_completion(session)

    def abort_session(self, session: PlayoutSession) -> None:
        session.abort(self.loop.now)
        self._retire(session)

    def _retire(self, session: PlayoutSession) -> None:
        self.sessions.pop(session.session_id, None)
        self.finished.append(session)
        if session.state is SessionState.ABORTED:
            self.telemetry.count("session.aborted")
        else:
            self.telemetry.count("session.completed")
        self.telemetry.metrics.gauge_set(
            "sessions.active", float(len(self.sessions))
        )

    @property
    def active_count(self) -> int:
        return len(self.sessions)

    # -- monitoring sweep ---------------------------------------------------------------

    def _arm_monitoring(self) -> None:
        if self._monitoring_armed:
            return
        self._monitoring_armed = True

        def sweep() -> None:
            # Re-arm even when the pass raises: a manager crash inside
            # the sweep (a journal append during adaptation) must not
            # leave the flag set with no sweep pending, or monitoring
            # stays off after the manager restarts.
            try:
                self.sweep_once()
            finally:
                if self.sessions:
                    self.loop.after(self.monitor_period_s, sweep)
                else:
                    self._monitoring_armed = False

        self.loop.after(self.monitor_period_s, sweep)

    def sweep_once(self) -> list[Violation]:
        """One monitoring pass: renew leases, reap leaks, detect
        violations and adapt."""
        now = self.loop.now
        committer = self.manager.committer
        if committer.leases is not None:
            # Live sessions keep their leases fresh; whatever stopped
            # renewing (lost releases, vanished users) is reaped, so no
            # reservation outlives its holder by more than one TTL.
            for session in self.sessions.values():
                committer.renew_lease(session.holder, now)
            committer.reap_expired(now)
        violations = self.monitor.scan(self.sessions.values(), now)
        violated_ids = {violation.session_id for violation in violations}
        for session in list(self.sessions.values()):
            if (
                session.state is SessionState.DEGRADED
                and session.session_id not in violated_ids
            ):
                if session.record.resources_lost:
                    # The session runs without guarantees; keep retrying
                    # the adaptation procedure until resources return.
                    if self.adaptation_enabled:
                        session.adapt(self.adaptation, now)
                        if not session.record.resources_lost:
                            session.clear_degraded(now)
                else:
                    session.clear_degraded(now)
        for violation in violations:
            session = self.sessions.get(violation.session_id)
            if session is None or session.state in (
                SessionState.COMPLETED,
                SessionState.ABORTED,
            ):
                continue
            self.telemetry.count(
                "monitor.violations", source=violation.source
            )
            if self.on_violation is not None:
                self.on_violation(violation)
            if self.adaptation_enabled:
                session.adapt(self.adaptation, now)
            else:
                session.mark_degraded(now)
        return violations
