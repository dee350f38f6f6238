"""Session supervision: heartbeats over active playouts.

The paper's active phase assumes every playing session has a live QoS
manager watching it.  After a manager crash that is no longer true: the
:class:`~repro.journal.recovery.RecoveryManager` finds CONFIRMED
sessions in the journal whose in-memory state is gone.  The supervisor
is where those sessions are handed: it heartbeats every watched
playout, detects the ones that stopped making progress (stalled) or
lost their reserved resources underneath (dead), and drives
release-or-adapt so a dead session never pins capacity.

Two kinds of watch:

* **live sessions** (:meth:`watch`) — a :class:`PlayoutSession` owned
  by a :class:`~repro.session.runtime.SessionRuntime`.  Progress is the
  heartbeat: a session whose playout position advances is alive; one
  whose reserved streams/flows vanished (a reaped lease, a wiped server
  ledger) is dead and is adapted — or aborted, releasing whatever is
  left — on the next sweep.
* **adopted holders** (:meth:`adopt`) — sessions recovered from the
  journal after a crash, known only by holder id.  No client reconnects
  to one, so once ``heartbeat_timeout_s`` passes the supervisor invokes
  the release closure the recovery manager attached (journaled as a
  ``supervisor-timeout`` release).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..util.clock import ManualClock
from ..util.errors import AdaptationError, SessionError
from ..util.validation import check_positive
from .playout import PlayoutSession, SessionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry
    from .engine import EventLoop
    from .runtime import SessionRuntime

__all__ = ["SupervisedEntry", "SupervisorStats", "SessionSupervisor"]

_TERMINAL_STATES = (SessionState.COMPLETED, SessionState.ABORTED)


@dataclass(slots=True)
class SupervisedEntry:
    """One watched holder."""

    holder: str
    last_heartbeat: float
    session: "PlayoutSession | None" = None
    release: "Callable[[float], None] | None" = None
    last_position_s: float = -1.0


@dataclass(slots=True)
class SupervisorStats:
    """What the supervisor observed and did."""

    sessions_released: int = 0


class SessionSupervisor:
    """Heartbeat watch over playouts and crash-recovered holders."""

    def __init__(
        self,
        *,
        clock: ManualClock,
        runtime: "SessionRuntime | None" = None,
        heartbeat_timeout_s: float = 30.0,
        period_s: float = 5.0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._clock = clock
        self.runtime = runtime
        if telemetry is None:
            from ..telemetry import Telemetry as _Telemetry

            telemetry = _Telemetry.disabled()
        self.telemetry = telemetry
        self.heartbeat_timeout_s = check_positive(
            float(heartbeat_timeout_s), "heartbeat_timeout_s"
        )
        self.period_s = check_positive(float(period_s), "period_s")
        self.stats = SupervisorStats()
        self._entries: "dict[str, SupervisedEntry]" = {}
        self._sweeping = False

    # -- registration --------------------------------------------------------------

    def watch(self, session: PlayoutSession) -> SupervisedEntry:
        """Put a live playout session under supervision."""
        now = self._clock.now()
        entry = SupervisedEntry(
            holder=session.holder,
            last_heartbeat=now,
            session=session,
            last_position_s=session.position_at(now),
        )
        self._entries[entry.holder] = entry
        return entry

    def adopt(
        self,
        holder: str,
        release: "Callable[[float], None] | None" = None,
        *,
        now: "float | None" = None,
    ) -> SupervisedEntry:
        """Take over a crash-recovered confirmed session by holder id.

        ``release`` is invoked with the current time once
        ``heartbeat_timeout_s`` has passed — the recovery manager
        passes a closure that journals the release and frees the
        holder's journaled resources.
        """
        if not holder:
            raise SessionError("cannot adopt an empty holder id")
        now = self._clock.now() if now is None else now
        entry = SupervisedEntry(
            holder=holder, last_heartbeat=now, release=release
        )
        self._entries[holder] = entry
        return entry

    def _beat(self, holder: str, now: float) -> None:
        telemetry = self.telemetry
        telemetry.count("supervisor.heartbeats")
        if telemetry.enabled:
            telemetry.tracer.emit(
                "playout.heartbeat",
                start_s=now,
                end_s=now,
                attributes={"holder": holder, "kind": "progress"},
            )

    def forget(self, holder: str) -> None:
        self._entries.pop(holder, None)

    def watched_holders(self) -> "tuple[str, ...]":
        return tuple(self._entries)

    @property
    def watch_count(self) -> int:
        return len(self._entries)

    # -- the sweep -----------------------------------------------------------------

    def arm(self, loop: "EventLoop") -> None:
        """Run :meth:`check` every ``period_s`` while anything is
        watched (auto-stops like the runtime's monitor sweep)."""
        if self._sweeping:
            return
        self._sweeping = True

        def sweep() -> None:
            # Re-arm even when the pass raises: a recovered holder's
            # release journals RELEASED, and a manager crash there must
            # not leave the flag set with no sweep pending, or
            # supervision stays off after the manager restarts.
            try:
                self.check(self._clock.now())
            finally:
                if self._entries:
                    loop.after(self.period_s, sweep)
                else:
                    self._sweeping = False

        loop.after(self.period_s, sweep)

    def check(self, now: "float | None" = None) -> "list[str]":
        """One supervision pass; returns the holders acted on."""
        now = self._clock.now() if now is None else now
        acted: "list[str]" = []
        for entry in list(self._entries.values()):
            if entry.session is not None:
                if self._check_live(entry, now):
                    acted.append(entry.holder)
            elif now - entry.last_heartbeat > self.heartbeat_timeout_s:
                # Adopted holder went silent: the user never came back
                # after the crash, so return the resources.
                if entry.release is not None:
                    entry.release(now)
                self.stats.sessions_released += 1
                self.telemetry.count("supervisor.releases")
                self._entries.pop(entry.holder, None)
                acted.append(entry.holder)
        return acted

    def _check_live(self, entry: SupervisedEntry, now: float) -> bool:
        session = entry.session
        assert session is not None
        if session.state in _TERMINAL_STATES:
            self._entries.pop(entry.holder, None)
            return False
        position = session.position_at(now)
        if position > entry.last_position_s + 1e-12:
            entry.last_position_s = position
            entry.last_heartbeat = now
            self._beat(entry.holder, now)
        stalled = now - entry.last_heartbeat > self.heartbeat_timeout_s
        dead = self._resources_gone(session)
        if not stalled and not dead:
            return False
        return self._release_or_adapt(entry, session, now)

    def _resources_gone(self, session: PlayoutSession) -> bool:
        """Did the session's reservation vanish underneath it (reaped
        lease, wiped server ledger)?  Only checkable with a runtime."""
        if self.runtime is None:
            return False
        commitment = session.result.commitment
        if commitment is None:
            return False
        bundle = commitment.bundle
        return bool(bundle.streams or bundle.flows) and not (
            self.runtime.manager.committer.still_held(bundle)
        )

    def _release_or_adapt(
        self, entry: SupervisedEntry, session: PlayoutSession, now: float
    ) -> bool:
        """Adapt the session onto fresh resources if possible; abort
        (and release) otherwise."""
        runtime = self.runtime
        if runtime is not None and runtime.adaptation_enabled:
            try:
                session.adapt(runtime.adaptation, now)
            except AdaptationError:
                pass  # fall through to release
            else:
                if not session.record.resources_lost:
                    entry.last_heartbeat = now
                    entry.last_position_s = session.position_at(now)
                    return True
        if runtime is not None:
            runtime.abort_session(session)
        else:
            session.abort(now)
        self.stats.sessions_released += 1
        self.telemetry.count("supervisor.releases")
        self._entries.pop(entry.holder, None)
        return True

    def __repr__(self) -> str:
        return (
            f"SessionSupervisor({self.watch_count} watched, "
            f"timeout {self.heartbeat_timeout_s:g}s)"
        )
