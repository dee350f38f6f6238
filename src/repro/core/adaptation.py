"""Automatic adaptation to QoS degradations (paper §4, last part).

"During the playout of the document, if the network or/and the server
machine become congested ... the QoS manager considers the ordered set
of system offers, except the current one (which is in difficulty), and
executes Step 5.  If an alternate system offer is selected and the
required resources are reserved, the QoS manager automatically performs
a transition from the current system offer to the new one."

The transition procedure implemented here is the paper's own: "the QoS
Manager stops the presentation of the document after having obtained
the current position of the document, and restarts the presentation
(using the alternate components) from the position parameter determined
earlier.  This transition procedure is a simple one" — its cost is the
configurable ``transition_overhead_s`` the E9 experiment measures.

Adaptation is automatic: the new commitment is confirmed immediately,
"without intervention by the user/application" (§1 point 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..client.machine import ClientMachine
from ..journal import JournalRecordType
from ..util.errors import AdaptationError
from ..util.validation import check_non_negative
from .classification import ClassifiedOffer
from .negotiation import NegotiationPlan, NegotiationResult, QoSManager
from .profiles import UserProfile
from .status import NegotiationStatus

__all__ = ["AdaptationStrategy", "AdaptationOutcome", "AdaptationManager"]


class AdaptationStrategy(enum.Enum):
    """How the transition orders teardown and reservation.

    ``BREAK_BEFORE_MAKE`` is the paper's own procedure ("stops the
    presentation ... and restarts the presentation from the position
    determined earlier"): the troubled offer's resources are released
    before the alternate is reserved, so the alternate can reuse
    whatever healthy share of the same components remains.  If nothing
    can be reserved — not even the original offer again — the session
    is left without guarantees (``resources_lost``).

    ``MAKE_BEFORE_BREAK`` is the conservative variant: the alternate is
    reserved while the old offer still holds its resources; failure
    leaves the old reservation untouched, but alternates sharing a
    congested component with the old offer cannot fit next to it.
    """

    BREAK_BEFORE_MAKE = "break-before-make"
    MAKE_BEFORE_BREAK = "make-before-break"


@dataclass(frozen=True, slots=True)
class AdaptationOutcome:
    """Result of one adaptation attempt."""

    switched: bool
    old_offer_id: str
    new_result: NegotiationResult | None
    resume_position_s: float
    interruption_s: float
    reverted: bool = False
    resources_lost: bool = False


class AdaptationManager:
    """Drives offer switching for sessions in difficulty."""

    def __init__(
        self,
        manager: QoSManager,
        *,
        transition_overhead_s: float = 2.0,
        strategy: AdaptationStrategy = AdaptationStrategy.BREAK_BEFORE_MAKE,
    ) -> None:
        self.manager = manager
        self.strategy = strategy
        self.transition_overhead_s = check_non_negative(
            transition_overhead_s, "transition_overhead_s"
        )

    def _journal_switch(
        self,
        old_holder: str,
        old_offer_id: str,
        new_result: NegotiationResult,
        position_s: float,
    ) -> None:
        """Record the §4 adaptation transition under the *new* holder —
        recovery then classifies the new holder as active-and-playing
        while the old holder's RELEASED record closes it out."""
        assert new_result.commitment is not None
        assert new_result.chosen is not None
        self.manager.committer.journal_event(
            JournalRecordType.ADAPT_SWITCH,
            new_result.commitment.bundle.holder,
            {
                "from_holder": old_holder,
                "old_offer_id": old_offer_id,
                "new_offer_id": new_result.chosen.offer.offer_id,
                "position_s": position_s,
            },
        )

    @staticmethod
    def _outcome_label(outcome: AdaptationOutcome) -> str:
        if outcome.switched:
            return "switched"
        if outcome.reverted:
            return "reverted"
        if outcome.resources_lost:
            return "resources-lost"
        return "blocked"

    def adapt(
        self,
        result: NegotiationResult,
        profile: UserProfile,
        client: ClientMachine,
        *,
        position_s: float,
        exclude_offer_ids: frozenset[str] = frozenset(),
        candidates: "list[ClassifiedOffer] | None" = None,
    ) -> AdaptationOutcome:
        """Attempt a transition away from the current offer.

        ``result`` must be a negotiation result that holds a commitment
        (the active session's).  ``exclude_offer_ids`` accumulates
        offers that already failed for this session so repeated
        adaptations do not retry them.  ``candidates`` restricts the
        walk to an explicit classified subset — the storm controller's
        downgrade-in-place fast path, which hands every member of a
        capability-class batch the same short list instead of the whole
        set; include the current offer in it so break-before-make can
        still revert.

        The order follows ``strategy``.  Under the default
        ``BREAK_BEFORE_MAKE`` the old reservation is released *first*;
        on success the new commitment is confirmed automatically, and
        on failure the walk tries to take the original offer back
        (``reverted``) or, when nothing is reservable any more, reports
        ``resources_lost``.  Under ``MAKE_BEFORE_BREAK`` the old
        reservation is released only after the new one is held, and a
        failure leaves it in place — a degraded session is still a
        session.
        """
        telemetry = self.manager.telemetry
        with telemetry.span(
            "adaptation.switch",
            strategy=self.strategy.value,
            position_s=position_s,
        ):
            outcome = self._adapt(
                result,
                profile,
                client,
                position_s=position_s,
                exclude_offer_ids=exclude_offer_ids,
                candidates=candidates,
            )
            label = self._outcome_label(outcome)
            telemetry.annotate(
                outcome=label, old_offer=outcome.old_offer_id
            )
        telemetry.count("adaptation.switches", outcome=label)
        return outcome

    def _adapt(
        self,
        result: NegotiationResult,
        profile: UserProfile,
        client: ClientMachine,
        *,
        position_s: float,
        exclude_offer_ids: frozenset[str] = frozenset(),
        candidates: "list[ClassifiedOffer] | None" = None,
    ) -> AdaptationOutcome:
        if result.commitment is None or result.chosen is None:
            raise AdaptationError(
                "adaptation needs an active commitment to move away from"
            )
        check_non_negative(position_s, "position_s")
        current_id = result.chosen.offer.offer_id
        current_holder = result.commitment.bundle.holder
        excluded = frozenset(exclude_offer_ids) | {current_id}

        if result.offer_space is None:
            raise AdaptationError("negotiation result carries no offer space")

        # A result keeps only the prefix its walk pulled; adaptation is
        # the §4 consumer of "the whole set of feasible system offers",
        # so drain the remainder now — unless the caller restricted the
        # walk to an explicit subset.
        classified = (
            candidates
            if candidates is not None
            else result.ensure_classified()
        )

        def commit(exclude: frozenset) -> NegotiationResult:
            # No policy: a caller's subset need not be in classified
            # order, so the walk defers until the list is drained.
            plan = NegotiationPlan(
                space=result.offer_space,
                offers=iter(classified),
                offers_in=sum(
                    c.offer.offer_id not in exclude for c in classified
                ),
            )
            return self.manager._commit(
                plan,
                profile,
                client,
                self.manager.guarantee,
                exclude_offer_ids=exclude,
            )

        if self.strategy is AdaptationStrategy.BREAK_BEFORE_MAKE:
            # The paper's transition: stop (release) first, then reserve
            # the alternate and restart from the obtained position.
            result.commitment.release()
            new_result = commit(excluded)
            if new_result.status is not NegotiationStatus.FAILED_TRY_LATER:
                assert new_result.commitment is not None
                new_result.commitment.confirm(self.manager.clock.now())
                self._journal_switch(
                    current_holder, current_id, new_result, position_s
                )
                return AdaptationOutcome(
                    switched=True,
                    old_offer_id=current_id,
                    new_result=new_result,
                    resume_position_s=position_s,
                    interruption_s=self.transition_overhead_s,
                )
            # No alternate: try to take the original offer back.
            only_current = frozenset(
                c.offer.offer_id
                for c in classified
                if c.offer.offer_id != current_id
            )
            revert = commit(only_current)
            if revert.status is not NegotiationStatus.FAILED_TRY_LATER:
                assert revert.commitment is not None
                revert.commitment.confirm(self.manager.clock.now())
                self._journal_switch(
                    current_holder, current_id, revert, position_s
                )
                return AdaptationOutcome(
                    switched=False,
                    old_offer_id=current_id,
                    new_result=revert,
                    resume_position_s=position_s,
                    interruption_s=0.0,
                    reverted=True,
                )
            # Nothing reservable at all: guarantees are gone.
            return AdaptationOutcome(
                switched=False,
                old_offer_id=current_id,
                new_result=None,
                resume_position_s=position_s,
                interruption_s=0.0,
                resources_lost=True,
            )

        # MAKE_BEFORE_BREAK: reserve the alternate while the old offer
        # still holds its resources; only then stop the old presentation.
        new_result = commit(excluded)
        if new_result.status is NegotiationStatus.FAILED_TRY_LATER:
            return AdaptationOutcome(
                switched=False,
                old_offer_id=current_id,
                new_result=None,
                resume_position_s=position_s,
                interruption_s=0.0,
            )
        result.commitment.release()
        assert new_result.commitment is not None
        new_result.commitment.confirm(self.manager.clock.now())
        self._journal_switch(
            current_holder, current_id, new_result, position_s
        )
        return AdaptationOutcome(
            switched=True,
            old_offer_id=current_id,
            new_result=new_result,
            resume_position_s=position_s,
            interruption_s=self.transition_overhead_s,
        )
