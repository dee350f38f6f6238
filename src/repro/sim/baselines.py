"""Baseline negotiators the paper's approach is compared against.

§1: existing systems use QoS negotiation "in a rather static manner ...
restricted to the evaluation of the capacity of certain system
components a priori known"; §5 argues classification by cost alone or
QoS alone is "neither optimal nor suitable".  The E7/E11 experiments
need those alternatives as executable baselines:

* :class:`StaticNegotiator` — the pre-paper behaviour: a single, a
  priori fixed configuration (the best-quality offer); if its resources
  are unavailable the request blocks.  No alternatives considered.
* :class:`FirstFitNegotiator` — no classification at all: walk offers
  in enumeration order, take the first that commits.
* :class:`CostOnlyNegotiator` — classify by cost alone (cheapest first).
* :class:`QoSOnlyNegotiator` — classify by QoS importance alone
  (best quality first), ignoring cost.
* :class:`SmartNegotiator` — the paper's procedure (thin wrapper for a
  uniform interface).

All plan through the real manager (:meth:`QoSManager.plan`: steps 1–4,
the user's preferences included) and commit through its resource
committer, so measured differences come purely from offer selection.
"""

from __future__ import annotations

from typing import Protocol

from ..client.machine import ClientMachine
from ..core.classification import ClassificationPolicy, ClassifiedOffer
from ..core.negotiation import NegotiationResult, QoSManager, Walk
from ..core.profiles import UserProfile
from ..documents.document import Document

__all__ = [
    "Negotiator",
    "SmartNegotiator",
    "StaticNegotiator",
    "FirstFitNegotiator",
    "CostOnlyNegotiator",
    "QoSOnlyNegotiator",
    "RandomNegotiator",
    "ALL_BASELINES",
]


class Negotiator(Protocol):
    """Uniform interface for the E-series comparisons."""

    name: str

    def negotiate(
        self,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
    ) -> NegotiationResult: ...


class SmartNegotiator:
    """The paper's procedure, unchanged."""

    name = "smart"

    def __init__(self, manager: QoSManager) -> None:
        self.manager = manager

    def negotiate(self, document, profile, client) -> NegotiationResult:
        return self.manager.negotiate(document, profile, client)


class _ReorderingNegotiator:
    """Shared scaffolding: plan and commit like the real manager, but
    impose a different candidate order (or truncation)."""

    name = "reordering"

    def __init__(self, manager: QoSManager) -> None:
        self.manager = manager

    def _order(
        self, classified: "list[ClassifiedOffer]"
    ) -> "list[ClassifiedOffer]":
        raise NotImplementedError

    def negotiate(self, document, profile, client) -> NegotiationResult:
        plan = self.manager.plan(
            document, profile, client,
            policy=ClassificationPolicy.SNS_PRIMARY,
        )
        if plan.early is not None:
            return plan.early
        assert plan.offers is not None and plan.space is not None
        # Exactly the imposed order: these baselines have no
        # satisfying-first refinement, so the walk gets the list as is.
        ordered = self._order(list(plan.offers))
        return Walk(
            self.manager, plan.space, profile, client, pulled=ordered
        ).run(ordered, offers_in=len(ordered))


class StaticNegotiator(_ReorderingNegotiator):
    """A priori fixed configuration: only the single best-quality offer
    is ever attempted (quality = QoS importance, ties by enumeration)."""

    name = "static"

    def _order(self, classified):
        if not classified:
            return []
        # Quality alone, not OIF: the a-priori "known good" configuration.
        return [max(classified, key=_quality_key(self.manager))]


class FirstFitNegotiator(_ReorderingNegotiator):
    """No classification: enumeration order, first fit wins."""

    name = "first-fit"

    def _order(self, classified):
        return sorted(
            classified, key=lambda c: int(c.offer.offer_id.split("-")[-1])
        )


class CostOnlyNegotiator(_ReorderingNegotiator):
    """Cheapest offer first (§5: "the cheapest system offer is the best
    system offer" — and why that is not enough)."""

    name = "cost-only"

    def _order(self, classified):
        return sorted(classified, key=lambda c: c.offer.cost.cents)


class QoSOnlyNegotiator(_ReorderingNegotiator):
    """Best QoS first, cost ignored (the §5 weighted-average-only
    classification)."""

    name = "qos-only"

    def _order(self, classified):
        key = _quality_key(self.manager)
        return sorted(classified, key=key, reverse=True)


class RandomNegotiator(_ReorderingNegotiator):
    """Uniformly random candidate order — the no-information floor.

    Seeded per instance so runs are reproducible; every negotiation
    draws a fresh permutation.
    """

    name = "random"

    def __init__(self, manager: QoSManager, seed: int = 0) -> None:
        super().__init__(manager)
        from ..util.rng import make_rng

        self._rng = make_rng(seed)

    def _order(self, classified):
        order = list(classified)
        indices = self._rng.permutation(len(order))
        return [order[int(i)] for i in indices]


def _quality_key(manager: QoSManager):
    """Offer quality = summed QoS importance under default importance
    weights (independent of the requesting user's cost sensitivity)."""
    from ..core.importance import default_importance

    importance = default_importance().with_cost_per_dollar(0.0)

    def key(c: ClassifiedOffer) -> float:
        return importance.overall_importance(list(c.offer.qos_points()), c.offer.cost)

    return key


def ALL_BASELINES(manager: QoSManager) -> "list[Negotiator]":
    """Every negotiator, paper's first."""
    return [
        SmartNegotiator(manager),
        StaticNegotiator(manager),
        FirstFitNegotiator(manager),
        CostOnlyNegotiator(manager),
        QoSOnlyNegotiator(manager),
        RandomNegotiator(manager),
    ]
