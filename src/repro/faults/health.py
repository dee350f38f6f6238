"""Per-server health tracking with a circuit breaker.

The commitment walk (§4 step 5) consults a :class:`CircuitBreaker`
before attempting an offer: servers that failed repeatedly are
*quarantined* for a recovery window, so their variants are skipped and
the walk degrades gracefully to alternate-server offers instead of
burning its retry budget against a dead machine.  After the window one
probe is let through (half-open); success closes the breaker, failure
re-opens it for another window.

The breaker also powers the retry-after hint on ``FAILEDTRYLATER``
results: the earliest quarantine expiry is when retrying the whole
negotiation first becomes worthwhile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

__all__ = ["BreakerState", "ServerHealth", "CircuitBreaker"]

FAILURE_THRESHOLD = 3  # consecutive failures that open a breaker
RECOVERY_TIME_S = 30.0  # how long an open breaker quarantines its server


class BreakerState(enum.Enum):
    CLOSED = "closed"        # healthy: requests flow
    OPEN = "open"            # quarantined: requests skipped
    HALF_OPEN = "half-open"  # recovery window elapsed: one probe allowed


@dataclass(slots=True)
class ServerHealth:
    """Mutable health record of one server."""

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: "float | None" = None


class CircuitBreaker:
    """Failure counting + quarantine over a server fleet.

    ``FAILURE_THRESHOLD`` consecutive failures open the breaker for
    ``RECOVERY_TIME_S``.  All transitions are driven by the caller's
    simulated ``now`` — the breaker holds no clock of its own.
    """

    def __init__(self) -> None:
        self._health: dict[str, ServerHealth] = {}
        self.opens = 0  # lifetime count of CLOSED/HALF_OPEN -> OPEN trips
        # Optional observer called as (server_id, old, new, now) on every
        # state change — the seam repro.telemetry.observe_breaker uses.
        self.on_transition: (
            "Callable[[str, BreakerState, BreakerState, float], None] | None"
        ) = None

    def _notify(
        self,
        server_id: str,
        old: BreakerState,
        new: BreakerState,
        now: float,
    ) -> None:
        if self.on_transition is not None and old is not new:
            self.on_transition(server_id, old, new, now)

    def _record(self, server_id: str) -> ServerHealth:
        record = self._health.get(server_id)
        if record is None:
            record = self._health[server_id] = ServerHealth()
        return record

    def health(self, server_id: str) -> ServerHealth:
        return self._record(server_id)

    def state(self, server_id: str, now: float) -> BreakerState:
        record = self._record(server_id)
        self._maybe_half_open(server_id, record, now)
        return record.state

    def quiet(self) -> bool:
        """Is every record ``CLOSED`` with no failure counted?  A server
        with no record is quiet.  On a quiet record a success changes no
        state and notifies no one."""
        return all(
            record.state is BreakerState.CLOSED
            and not record.consecutive_failures
            for record in self._health.values()
        )

    # -- outcome recording ---------------------------------------------------------

    def record_success(self, server_id: str, now: float) -> None:
        record = self._record(server_id)
        old = record.state
        record.consecutive_failures = 0
        record.state = BreakerState.CLOSED
        record.opened_at = None
        self._notify(server_id, old, BreakerState.CLOSED, now)

    def record_failure(self, server_id: str, now: float) -> None:
        record = self._record(server_id)
        record.consecutive_failures += 1
        if record.state is BreakerState.HALF_OPEN:
            # The probe failed: back to quarantine for a fresh window.
            self._trip(server_id, record, now)
        elif (
            record.state is BreakerState.CLOSED
            and record.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._trip(server_id, record, now)

    def _trip(self, server_id: str, record: ServerHealth, now: float) -> None:
        old = record.state
        record.state = BreakerState.OPEN
        record.opened_at = now
        self.opens += 1
        self._notify(server_id, old, BreakerState.OPEN, now)

    # -- admission gating ----------------------------------------------------------

    def _maybe_half_open(
        self, server_id: str, record: ServerHealth, now: float
    ) -> None:
        if (
            record.state is BreakerState.OPEN
            and record.opened_at is not None
            and now >= record.opened_at + RECOVERY_TIME_S - 1e-12
        ):
            record.state = BreakerState.HALF_OPEN
            self._notify(
                server_id, BreakerState.OPEN, BreakerState.HALF_OPEN, now
            )

    def allow(self, server_id: str, now: float) -> bool:
        """May a request be sent to this server right now?  An OPEN
        breaker whose recovery window elapsed transitions to HALF_OPEN
        and admits the probe."""
        record = self._record(server_id)
        self._maybe_half_open(server_id, record, now)
        return record.state is not BreakerState.OPEN

    def earliest_reopen(self, now: float) -> "float | None":
        """The soonest time a quarantined server becomes probeable, or
        ``None`` when nothing is quarantined."""
        deadlines = [
            record.opened_at + RECOVERY_TIME_S
            for record in self._health.values()
            if record.state is BreakerState.OPEN and record.opened_at is not None
        ]
        future = [d for d in deadlines if d > now]
        return min(future) if future else None

    def __repr__(self) -> str:
        open_count = sum(
            1 for r in self._health.values() if r.state is BreakerState.OPEN
        )
        return (
            f"CircuitBreaker({len(self._health)} tracked, {open_count} open, "
            f"threshold={FAILURE_THRESHOLD}, "
            f"recovery={RECOVERY_TIME_S:g}s)"
        )
