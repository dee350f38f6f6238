"""The batch negotiation engine: plan per class, walk per member.

``negotiate_batch`` is semantically ``[manager.negotiate(r) for r in
requests]`` — same submission order, same holder sequence, same ledger
states at each walk, hence byte-exact ``(status, offer id, attempts)``
per member — but the pure prefix (steps 1–4) runs once per equivalence
class instead of once per request:

* classes are keyed by :func:`~repro.batch.classes.request_class_key`;
* classes that share an offer space (same space key + policy, eager
  mode) are classified together in one structure-of-arrays NumPy pass
  (:func:`~repro.core.classification.classify_arrays_batch`), seeded
  into the negotiation cache so the per-class plan is a pure hit;
* spaces above the vectorization ceiling plan through the best-first
  stream, wrapped in a replayable buffer so every member sees the
  stream from its beginning while classification work is still done
  at most once per offer.

``after_each`` runs after each member's walk, before the next member
touches the ledgers — the bench uses it to reject commitments so the
batched run replays the sequential run's exact resource states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from ..core.classification import (
    MAX_VECTOR_OFFERS,
    ClassificationArrays,
    ClassifiedOffer,
    classify_arrays_batch,
)
from ..core.enumeration import build_offer_space
from ..core.negotiation import NegotiationPlan, NegotiationResult, QoSManager
from .classes import BatchRequest, request_class_key

__all__ = ["negotiate_batch"]

AfterEach = Callable[[BatchRequest, NegotiationResult], None]


class _ReplayableStream:
    """A best-first classification stream every member can replay.

    Items already pulled are buffered; each :meth:`iter` replays the
    buffer then extends it from the base stream, so member *k*'s view
    is identical to a fresh stream's prefix while each offer is
    classified at most once across the whole class.
    """

    def __init__(self, base: "Iterator[ClassifiedOffer]") -> None:
        self._base = base
        self._buffer: "list[ClassifiedOffer]" = []

    def iter(self) -> "Iterator[ClassifiedOffer]":
        i = 0
        while True:
            if i < len(self._buffer):
                item = self._buffer[i]
            else:
                try:
                    item = next(self._base)
                except StopIteration:
                    return
                self._buffer.append(item)
            yield item
            i += 1


@dataclass
class _ClassPlan:
    """One equivalence class's shared steps-1–4 outcome."""

    plan: NegotiationPlan
    shared_stream: "_ReplayableStream | None" = None
    members_walked: int = 0

    def member_plan(self) -> NegotiationPlan:
        """A per-member view of the class plan.

        Early results are cloned (results are mutable records the
        caller owns); eager classified lists are shared read-only; the
        stream gets a fresh replay cursor.
        """
        plan = self.plan
        if plan.early is not None:
            early = replace(
                plan.early,
                classified=list(plan.early.classified),
                local_violations=dict(plan.early.local_violations),
            )
            return NegotiationPlan(early=early, space=plan.space)
        shared = self.shared_stream
        return replace(
            plan, stream=shared.iter() if shared is not None else None
        )


@dataclass
class _ClassGroup:
    key: tuple
    representative: BatchRequest
    size: int = 1


def _preseed_shared_classifications(
    manager: QoSManager, groups: "dict[tuple, _ClassGroup]"
) -> None:
    """Classify space-compatible classes together, one SoA pass each.

    Only applies when the manager carries a cache (the seed target) and
    at least two classes share (space key, policy) in eager mode; each
    class's row lands in the cache under its own classification key,
    so the subsequent per-class ``plan`` call is a pure hit.  Misses
    are counted here, once per class — exactly what the sequential
    path would have charged.
    """
    cache = manager.cache
    if cache is None:
        return
    by_space: "dict[tuple, list[_ClassGroup]]" = {}
    for group in groups.values():
        request = group.representative
        mode = request.offer_mode or manager.offer_mode
        if mode != "full":
            continue
        space_key = group.key[:6]
        policy = request.policy or manager.policy
        by_space.setdefault(space_key + (policy.value,), []).append(group)
    for space_and_policy, space_groups in by_space.items():
        if len(space_groups) < 2:
            continue
        space_key = space_and_policy[:6]
        request = space_groups[0].representative
        policy = request.policy or manager.policy
        guarantee = request.guarantee or manager.guarantee
        document = request.document
        if isinstance(document, str):
            document = manager.database.get_document(document)
        space = cache.offer_space(
            space_key,
            lambda: build_offer_space(
                document,
                request.client,
                manager.cost_model,
                mapper=manager.mapper,
                guarantee=guarantee,
                variant_filter=None,
            ),
        )
        if space.is_empty or space.offer_count > MAX_VECTOR_OFFERS:
            continue
        members = [
            (
                group.representative.profile,
                manager._importance_of(group.representative.profile),
            )
            for group in space_groups
        ]
        rows = classify_arrays_batch(space, members, policy=policy)
        for group, (profile, importance), arrays in zip(
            space_groups, members, rows
        ):
            key = cache.classification_key(
                space_key, profile, importance, policy
            )

            def seeded(arrays: ClassificationArrays = arrays) -> object:
                return arrays

            cache.classifications.lookup(key, seeded)


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
    # fraction of a commitment walk.  Profiles and clients are frozen,
    # and ``requests`` keeps every referenced object alive for the
    # duration of this call, so identity-keyed memoisation is sound.
    key_memo: "dict[tuple, tuple | None]" = {}
    for request in requests:
        memo_key = (
            request.document_id,
            id(request.profile),
            id(request.client),
            request.policy,
            request.guarantee,
            request.max_offers,
            request.offer_mode,
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
            groups[key] = _ClassGroup(key=key, representative=request)
        else:
            group.size += 1

    _preseed_shared_classifications(manager, groups)

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
            offer_mode=request.offer_mode or manager.offer_mode,
        )
        shared = None
        if plan.stream is not None:
            shared = _ReplayableStream(plan.stream)
        plans[key] = _ClassPlan(plan=plan, shared_stream=shared)
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
                offer_mode=request.offer_mode,
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
