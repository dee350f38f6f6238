"""Negotiation status values (paper §4) and static negotiation status
(paper §5.2.1).

The negotiation status is what the profile manager shows the user; the
static negotiation status (SNS) is the per-offer primary classification
key.  Both are closed enumerations taken verbatim from the paper.
"""

from __future__ import annotations

import enum

__all__ = ["NegotiationStatus", "StaticNegotiationStatus"]


class NegotiationStatus(enum.Enum):
    """Outcome of one run of the negotiation procedure (§4)."""

    SUCCEEDED = "SUCCEEDED"
    """QoS and maximum cost are satisfied; a user offer (not violating
    the worst-acceptable values) is returned, resources reserved."""

    FAILED_WITH_OFFER = "FAILEDWITHOFFER"
    """Negotiation failed, but an offer the system *can* support (while
    not satisfying the user requirements) is returned, resources
    reserved."""

    FAILED_TRY_LATER = "FAILEDTRYLATER"
    """Failed because of resource shortage; the same request may succeed
    later."""

    FAILED_WITHOUT_OFFER = "FAILEDWITHOUTOFFER"
    """No possible instantiation of the functional configuration exists,
    e.g. the client machine has no suitable decoder (§4 step 2)."""

    FAILED_WITH_LOCAL_OFFER = "FAILEDWITHLOCALOFFER"
    """The client machine itself cannot present the requested QoS, e.g.
    colour video requested on a black&white screen (§4 step 1)."""

    @property
    def is_success(self) -> bool:
        return self is NegotiationStatus.SUCCEEDED

    @property
    def reserves_resources(self) -> bool:
        """Whether resources are held pending user confirmation."""
        return self in (
            NegotiationStatus.SUCCEEDED,
            NegotiationStatus.FAILED_WITH_OFFER,
        )

    def __str__(self) -> str:
        return self.value


class StaticNegotiationStatus(enum.IntEnum):
    """Degree of satisfaction of the user profile by an offer (§5.2.1).

    Ordered best → worst so it can serve directly as the primary sort
    key of the classification (§5.2.2(c)): DESIRABLE < ACCEPTABLE <
    CONSTRAINT in sort order.
    """

    DESIRABLE = 0
    """The offer's QoS satisfies the QoS *desired* by the user."""

    ACCEPTABLE = 1
    """The offer's QoS is at least as good as the *worst acceptable*
    values (but short of the desired ones)."""

    CONSTRAINT = 2
    """The offer violates the worst-acceptable QoS for at least one
    monomedia and some of its characteristics."""

    @property
    def satisfies_user(self) -> bool:
        """DESIRABLE and ACCEPTABLE offers satisfy the user's QoS
        requirements; CONSTRAINT offers do not."""
        return self is not StaticNegotiationStatus.CONSTRAINT

    def __str__(self) -> str:
        return self.name
