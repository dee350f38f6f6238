"""The eager reference the negotiation pipeline is compared against.

Steps 3–5 the way the paper states them, with nothing lazy: classify
and sort the whole offer space (``classify_space``), re-rank it when
the user's preferences carry an offer bonus, keep the ``max_offers``
best, then try the user-satisfying offers before the rest, each group
in classified order (§5.2.2(c)), asking the servers about every one of
them: the walk here keeps no refusal memo.  ``QoSManager.negotiate``,
the batch engine and the service must reach the same ``(status, offer
id, attempts)`` on the same ledgers.
"""

from repro.core.classification import apply_offer_bonus, classify_space
from repro.core.commitment import Commitment
from repro.core.enumeration import build_offer_space
from repro.core.negotiation import NegotiationResult
from repro.core.status import NegotiationStatus


def signature(result):
    return (
        result.status.name,
        result.chosen.offer.offer_id if result.chosen else None,
        result.attempts,
    )


def reference_negotiate(
    manager, document_id, profile, client, *, policy=None, max_offers=None
):
    policy = policy or manager.policy
    document = manager.database.get_document(document_id)
    violations, local_best = manager._static_local_negotiation(
        document, profile, client
    )
    if violations:
        return NegotiationResult(
            status=NegotiationStatus.FAILED_WITH_LOCAL_OFFER,
            user_offer=local_best,
            local_violations=violations,
        )
    preferences = profile.preferences
    variant_filter = None
    if preferences is not None and manager.directory is not None:
        variant_filter = preferences.variant_filter(manager.directory)
    space = build_offer_space(
        document, client, manager.cost_model, mapper=manager.mapper,
        guarantee=manager.guarantee, variant_filter=variant_filter,
    )
    classified = classify_space(
        space, profile, manager._importance_of(profile), policy=policy
    )
    if preferences is not None and not preferences.is_trivial:
        classified = apply_offer_bonus(
            classified, preferences.offer_bonus, policy=policy
        )
    classified = classified[:max_offers]
    if not classified:
        return NegotiationResult(
            status=NegotiationStatus.FAILED_WITHOUT_OFFER, offer_space=space
        )
    holder = manager.new_holder()
    satisfying = [c for c in classified if c.satisfies_user]
    fallback = [c for c in classified if not c.satisfies_user]
    for attempts, candidate in enumerate(satisfying + fallback, start=1):
        bundle = manager.committer.try_commit(
            candidate.offer, space, client.access_point,
            guarantee=manager.guarantee, holder=holder,
        )
        if bundle is not None:
            return NegotiationResult(
                status=(
                    NegotiationStatus.SUCCEEDED if candidate.satisfies_user
                    else NegotiationStatus.FAILED_WITH_OFFER
                ),
                chosen=candidate,
                commitment=Commitment(
                    bundle, manager.committer,
                    reserved_at=manager.clock.now(),
                    choice_period_s=profile.choice_period_s,
                ),
                classified=classified,
                offer_space=space,
                attempts=attempts,
            )
    manager.committer.end_walk(holder)
    return NegotiationResult(
        status=NegotiationStatus.FAILED_TRY_LATER,
        classified=classified,
        offer_space=space,
        attempts=len(classified),
    )
