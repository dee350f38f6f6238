"""Playout sessions (paper §4 step 6 onward).

A :class:`PlayoutSession` is one confirmed document delivery: it tracks
the presentation position, survives adaptation transitions (stop at the
current position, restart on the alternate configuration — the paper's
transition procedure), and accumulates the quality-of-experience record
the E9 experiment reports (interruptions, stall time, downgrades,
completion).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..client.machine import ClientMachine
from ..core.adaptation import AdaptationManager, AdaptationOutcome
from ..core.negotiation import NegotiationResult
from ..core.profiles import UserProfile
from ..util.errors import SessionError
from ..util.validation import check_non_negative

__all__ = ["SessionState", "SessionRecord", "PlayoutSession"]


class SessionState(enum.Enum):
    PLAYING = "playing"
    INTERRUPTED = "interrupted"  # mid-transition
    DEGRADED = "degraded"        # violation present, no alternate found
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass(slots=True)
class SessionRecord:
    """Quality-of-experience ledger of one session."""

    interruptions: int = 0
    total_interruption_s: float = 0.0
    adaptations: int = 0
    failed_adaptations: int = 0
    degraded_time_s: float = 0.0
    resources_lost: bool = False
    completed: bool = False
    aborted: bool = False


class PlayoutSession:
    """One active document delivery."""

    def __init__(
        self,
        session_id: str,
        result: NegotiationResult,
        profile: UserProfile,
        client: ClientMachine,
        *,
        started_at: float,
        duration_s: float,
    ) -> None:
        if result.commitment is None or result.chosen is None:
            raise SessionError(
                "a playout session needs a committed negotiation result"
            )
        self.session_id = session_id
        self.result = result
        self.profile = profile
        self.client = client
        self.duration_s = check_non_negative(duration_s, "duration_s")
        self.state = SessionState.PLAYING
        self.record = SessionRecord()
        self._segment_started_at = float(started_at)
        self._position_at_segment_start = 0.0
        self._degraded_since: "float | None" = None
        self._excluded_offers: set[str] = set()

    # -- position tracking ----------------------------------------------------------

    @property
    def holder(self) -> str:
        """The reservation holder tag of the active commitment."""
        return self.result.commitment.bundle.holder  # type: ignore[union-attr]

    @property
    def current_offer_id(self) -> str:
        return self.result.chosen.offer.offer_id  # type: ignore[union-attr]

    @property
    def excluded_offers(self) -> frozenset[str]:
        """Offers this session already failed on (read-only view)."""
        return frozenset(self._excluded_offers)

    def position_at(self, now: float) -> float:
        """Presentation position: advances while PLAYING or DEGRADED,
        frozen otherwise (the paper's transition stops the
        presentation)."""
        if self.state in (SessionState.PLAYING, SessionState.DEGRADED):
            elapsed = max(now - self._segment_started_at, 0.0)
            return min(
                self._position_at_segment_start + elapsed, self.duration_s
            )
        return self._position_at_segment_start

    def finished_by(self, now: float) -> bool:
        # Tolerate float roundoff in position accumulation: an event
        # scheduled exactly at the end must count as finished.
        return self.position_at(now) >= self.duration_s - 1e-6

    # -- state transitions --------------------------------------------------------------

    def mark_degraded(self, now: float) -> None:
        """A violation is present and no transition has happened yet."""
        if self.state is SessionState.PLAYING:
            self.state = SessionState.DEGRADED
            self._degraded_since = now

    def clear_degraded(self, now: float) -> None:
        """The violation is gone (congestion healed without a switch)."""
        if self.state is SessionState.DEGRADED:
            self._leave_degraded(now)
            self.state = SessionState.PLAYING

    def _leave_degraded(self, now: float) -> None:
        if self._degraded_since is not None:
            self.record.degraded_time_s += now - self._degraded_since
            self._degraded_since = None

    def apply_adaptation(
        self, outcome: AdaptationOutcome, now: float
    ) -> None:
        """Fold one adaptation attempt into the session state."""
        if outcome.switched:
            assert outcome.new_result is not None
            self._leave_degraded(now)
            # Stop at the obtained position, restart after the
            # transition overhead on the alternate configuration.
            self._excluded_offers.add(outcome.old_offer_id)
            self.result = outcome.new_result
            self.record.resources_lost = False
            self.record.adaptations += 1
            self.record.interruptions += 1
            self.record.total_interruption_s += outcome.interruption_s
            self._position_at_segment_start = outcome.resume_position_s
            self._segment_started_at = now + outcome.interruption_s
            self.state = SessionState.PLAYING
        elif outcome.reverted:
            # Break-before-make found no alternate but re-secured the
            # original offer; the violation persists.
            assert outcome.new_result is not None
            self.result = outcome.new_result
            self.record.resources_lost = False
            self.record.failed_adaptations += 1
            self.mark_degraded(now)
        else:
            self.record.failed_adaptations += 1
            if outcome.resources_lost:
                self.record.resources_lost = True
            self.mark_degraded(now)

    def adapt(
        self,
        adaptation: AdaptationManager,
        now: float,
        *,
        candidates: "list | None" = None,
    ) -> AdaptationOutcome:
        """Run the §4 adaptation procedure for this session.

        ``candidates`` restricts the walk to an explicit classified
        subset (the storm controller's batched fast path)."""
        if self.state in (SessionState.COMPLETED, SessionState.ABORTED):
            raise SessionError(
                f"session {self.session_id} is {self.state.value}"
            )
        position = self.position_at(now)
        outcome = adaptation.adapt(
            self.result,
            self.profile,
            self.client,
            position_s=position,
            exclude_offer_ids=frozenset(self._excluded_offers),
            candidates=candidates,
        )
        self.apply_adaptation(outcome, now)
        return outcome

    def complete(self, now: float) -> None:
        self._finalize(now)
        self.state = SessionState.COMPLETED
        self.record.completed = True

    def abort(self, now: float) -> None:
        self._finalize(now)
        self.state = SessionState.ABORTED
        self.record.aborted = True

    def _finalize(self, now: float) -> None:
        if self.state in (SessionState.COMPLETED, SessionState.ABORTED):
            raise SessionError(
                f"session {self.session_id} already {self.state.value}"
            )
        self._leave_degraded(now)
        self._position_at_segment_start = self.position_at(now)
        self._segment_started_at = now
        if self.result.commitment is not None:
            self.result.commitment.release()

    def __repr__(self) -> str:
        return (
            f"PlayoutSession({self.session_id}, {self.state.value}, "
            f"offer={self.current_offer_id})"
        )
