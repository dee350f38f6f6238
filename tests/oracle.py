"""The eager references the stack is compared against: the negotiation
pipeline (below) and one server's admission test (at the end).

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


# -- one server's admission test, re-summed from its ledger --------------------------
#
# The rules as ``repro.cmfs.admission``'s docstring lists them, and the
# degraded budget and shedding order as ``MediaServer`` documents them,
# with every total rebuilt from ``stream_rates()`` by a plain
# left-to-right loop (never ``sum()``, which CPython >= 3.12
# compensates).  Nothing here is kept between calls.


def _busy_s(disk, rates):
    transfer_s = 0.0
    for rate in rates:
        transfer_s = transfer_s + rate * disk.round_s / disk.transfer_rate_bps
    return transfer_s + len(rates) * disk.overhead_s


def _degraded_budget_s(server):
    return server.disk.round_s * (1.0 - server.degradation)


def reference_admission(server, new_rate_bps):
    """The ``AdmissionDecision`` ``server`` owes one more stream of
    ``new_rate_bps``, text included."""
    from repro.cmfs.admission import AdmissionDecision

    controller, disk = server.admission, server.disk
    rates = list(server.stream_rates()) + [new_rate_bps]
    if len(rates) > controller.max_streams:
        return AdmissionDecision(
            False, "streams", f"stream limit {controller.max_streams} reached"
        )
    busy = _busy_s(controller.disk, rates)
    if controller.enforce_disk and busy > controller.disk.round_s + 1e-12:
        return AdmissionDecision(
            False, "disk",
            f"round busy {busy * 1e3:.1f} ms exceeds "
            f"{controller.disk.round_s * 1e3:.1f} ms",
        )
    if controller.enforce_buffer:
        demand = 0.0
        for rate in rates:
            demand = demand + 2.0 * rate * controller.disk.round_s
        if demand > controller.buffer_bits:
            return AdmissionDecision(
                False, "buffer",
                f"buffer demand {demand / 8e6:.1f} MB exceeds "
                f"{controller.buffer_bits / 8e6:.1f} MB",
            )
    if controller.enforce_nic:
        aggregate = 0.0
        for rate in rates:
            aggregate = aggregate + rate
        if aggregate > controller.nic_bps:
            return AdmissionDecision(
                False, "nic",
                f"aggregate {aggregate / 1e6:.1f} Mbps exceeds NIC "
                f"{controller.nic_bps / 1e6:.1f} Mbps",
            )
    if server.degradation_limits_admission and server.degradation > 0.0:
        busy, budget = _busy_s(disk, rates), _degraded_budget_s(server)
        if busy > budget + 1e-12:
            return AdmissionDecision(
                False, "disk",
                f"round busy {busy * 1e3:.1f} ms exceeds degraded budget "
                f"{budget * 1e3:.1f} ms (degradation {server.degradation:g})",
            )
    return AdmissionDecision(True)


def reference_violated_holders(server):
    """Holders shed right now: everyone on a crashed machine; on a
    degraded one, every stream whose admission-order running round time
    passes the shrunken budget."""
    if server.is_crashed:
        return frozenset(r.holder for r in server.reservations())
    disk, budget = server.disk, _degraded_budget_s(server)
    if server.degradation == 0.0 or (
        _busy_s(disk, server.stream_rates()) <= budget + 1e-12
    ):
        return frozenset()
    victims, running = [], 0.0
    for reservation in sorted(server.reservations(), key=lambda r: r.sequence):
        running += (
            reservation.rate_bps * disk.round_s / disk.transfer_rate_bps
            + disk.overhead_s
        )
        if running > budget + 1e-12:
            victims.append(reservation.holder)
    return frozenset(victims)


def reference_disk_utilization(server):
    return _busy_s(server.disk, server.stream_rates()) / server.disk.round_s


def reference_aggregate_rate_bps(server):
    aggregate = 0.0
    for rate in server.stream_rates():
        aggregate = aggregate + rate
    return aggregate
