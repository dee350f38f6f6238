"""The batch negotiation engine: plan per class, walk per member.

``negotiate_batch`` is semantically ``[manager.negotiate(r) for r in
requests]`` — same submission order, same holder sequence, same ledger
states at each walk, hence byte-exact ``(status, offer id, attempts)``
per member — but the pure prefix (steps 1–4) runs once per equivalence
class instead of once per request:

* classes are keyed by :func:`~repro.batch.classes.request_class_key`;
* every member walks the class plan's memoised order from its first
  offer (:func:`~repro.core.stream.shared_order`), so the shared prefix
  is classified at most once per offer.

``after_each`` runs after each member's walk, before the next member
touches the ledgers — a caller that rejects commitments there replays
the sequential run's exact resource states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..core.negotiation import NegotiationPlan, NegotiationResult, QoSManager
from ..core.profiles import UserProfile
from ..core.stream import SharedOrder, shared_order
from .classes import BatchRequest, request_class_key

__all__ = ["negotiate_batch"]

AfterEach = Callable[[BatchRequest, NegotiationResult], None]


@dataclass
class _ClassPlan:
    """One equivalence class's shared steps-1–4 outcome."""

    plan: NegotiationPlan
    profile: UserProfile
    members_walked: int = 0
    _order: "SharedOrder | None" = field(default=None, init=False, repr=False)
    _handed_out: bool = field(default=False, init=False, repr=False)

    def member_plan(self) -> NegotiationPlan:
        """A per-member view of the class plan.

        Early results are cloned (results are mutable records the
        caller owns).  The first member walks the plan's own offers;
        each later one replays the same order from the space's memo
        (:mod:`repro.core.stream`), looked up once, when the second
        member arrives.
        """
        plan = self.plan
        if plan.offers is None:
            assert plan.early is not None
            early = replace(
                plan.early,
                classified=list(plan.early.classified),
                local_violations=dict(plan.early.local_violations),
            )
            return NegotiationPlan(early=early, space=plan.space)
        if not self._handed_out:
            self._handed_out = True
            return plan
        if self._order is None:
            assert plan.space is not None and plan.policy is not None
            self._order = shared_order(
                plan.space,
                self.profile,
                QoSManager._importance_of(self.profile),
                policy=plan.policy,
            )
        return replace(
            plan,
            offers=itertools.islice(self._order.cursor(), plan.offers_in),
        )


@dataclass
class _ClassGroup:
    representative: BatchRequest
    size: int = 1


def negotiate_batch(
    manager: QoSManager,
    requests: "Sequence[BatchRequest]",
    *,
    after_each: "AfterEach | None" = None,
) -> "list[NegotiationResult]":
    """Negotiate ``requests`` in order, planning once per class.

    Returns one result per request, in submission order.  Unbatchable
    requests (user preferences) fall back to plain ``negotiate`` in
    their slot, so a mixed stream needs no pre-sorting by the caller.
    """
    telemetry = manager.telemetry
    keys: "list[tuple | None]" = []
    groups: "dict[tuple, _ClassGroup]" = {}
    # Class keys fingerprint profile, cost-model and mapper state;
    # recomputing them for every member of a hot class costs a sizable
    # fraction of a commitment walk.  ``requests`` keeps every
    # referenced object alive for the duration of this call, so
    # identity-keyed memoisation is sound for what cannot change:
    # profiles and clients are frozen, but a client's decoder bank is
    # not, so its mutation counter joins the key.
    key_memo: "dict[tuple, tuple | None]" = {}
    for request in requests:
        memo_key = (
            request.document_id,
            id(request.profile),
            id(request.client),
            request.client.decoders.version,
            request.policy,
            request.guarantee,
            request.max_offers,
        )
        if memo_key in key_memo:
            key = key_memo[memo_key]
        else:
            key = request_class_key(manager, request)
            key_memo[memo_key] = key
        keys.append(key)
        if key is None:
            continue
        group = groups.get(key)
        if group is None:
            groups[key] = _ClassGroup(representative=request)
        else:
            group.size += 1

    plans: "dict[tuple, _ClassPlan]" = {}
    for key, group in groups.items():
        request = group.representative
        plan = manager.plan(
            request.document,
            request.profile,
            request.client,
            policy=request.policy,
            guarantee=request.guarantee,
            max_offers=request.max_offers,
        )
        plans[key] = _ClassPlan(plan, request.profile)
        telemetry.count("batch.plans")
        telemetry.observe("batch.class_size", float(group.size))

    results: "list[NegotiationResult]" = []
    for request, key in zip(requests, keys):
        if key is None:
            result = manager.negotiate(
                request.document,
                request.profile,
                request.client,
                policy=request.policy,
                guarantee=request.guarantee,
                max_offers=request.max_offers,
            )
        else:
            class_plan = plans[key]
            if class_plan.members_walked:
                telemetry.count("batch.coalesced", site="batch")
            class_plan.members_walked += 1
            result = manager.complete(
                class_plan.member_plan(),
                request.profile,
                request.client,
                guarantee=request.guarantee,
            )
            telemetry.count(
                "negotiation.outcomes", status=str(result.status)
            )
            telemetry.observe("negotiation.attempts", float(result.attempts))
            telemetry.observe(
                "negotiation.offers.classified",
                float(len(result.classified)),
            )
        results.append(result)
        if after_each is not None:
            after_each(request, result)
    return results
