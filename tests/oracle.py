"""The eager references the stack is compared against: the negotiation
pipeline (below), one server's admission test, one topology's routing
and shedding, the fault injector's spec matching, and the event loop's
firing order (at the end).

Steps 3–5 the way the paper states them, with nothing lazy: classify
and sort the whole offer space (``classify_space``, server weights
included), keep the ``max_offers`` best, then try the user-satisfying
offers before the rest, each group in classified order (§5.2.2(c)),
asking the servers about every one of them: the walk here keeps no
refusal memo.  ``QoSManager.negotiate``,
the batch engine and the service must reach the same ``(status, offer
id, attempts)`` on the same ledgers.
"""

from repro.core.classification import classify_space
from repro.core.commitment import Commitment
from repro.core.enumeration import build_offer_space
from repro.core.negotiation import NegotiationResult
from repro.core.status import NegotiationStatus
from repro.faults.injector import FaultInjector


def uncached(scenario):
    """``scenario`` with its manager planning every space afresh: the
    oracle arm the cached deployments are compared against."""
    scenario.manager.cache = None
    return scenario


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
    )[:max_offers]
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


# -- one topology's routes and shed flows, from scratch --------------------------------
#
# Routing as ``repro.network.routing`` documents it, with no route memo:
# a fresh Dijkstra over the graph in which a link is present only if it
# can still take the rate.  Shedding as ``Link.violated_holders``
# documents it, with every link's ledger re-sorted by reservation id.


def reference_unconstrained_for(topology, rate_bps):
    return all(link.can_reserve(rate_bps) for link in topology.links())


def reference_route_nodes(topology, source, target, rate_bps):
    """The node path ``find_route`` owes, or None where it must raise."""
    import networkx as nx

    if not (topology.has_node(source) and topology.has_node(target)):
        return None
    if source == target:
        return (source,)

    def weight(a, b, data):
        link = data["link"]
        return link.cost_weight if link.can_reserve(rate_bps) else None

    try:
        return tuple(
            nx.shortest_path(topology.graph, source, target, weight=weight)
        )
    except nx.NetworkXNoPath:
        return None


def reference_probe(topology, source, target, spec, guarantee):
    """The node path ``TransportSystem.probe`` owes, or None: the fresh
    route, kept only if its folded delay, jitter and loss meet the
    spec's bounds."""
    nodes = reference_route_nodes(
        topology, source, target, guarantee.billable_rate(spec)
    )
    if nodes is None:
        return None
    delay = jitter = loss = 0.0
    for a, b in zip(nodes, nodes[1:]):
        qos = topology.link_between(a, b).qos
        delay = delay + qos.delay_s
        jitter = jitter + qos.jitter_s
        loss = 1.0 - (1.0 - loss) * (1.0 - qos.loss_rate)
    if (
        delay <= spec.max_delay_s
        and jitter <= spec.max_jitter_s
        and loss <= spec.max_loss_rate
    ):
        return nodes
    return None


def reference_violated_flows(transport):
    """Flows shed right now, in ledger order: on every oversubscribed
    link, each holder whose running rate in reservation-id order passes
    the shrunken capacity."""
    victims = set()
    for link in transport.topology.links():
        if not link.oversubscribed:
            continue
        budget, running = link.effective_capacity_bps, 0.0
        for reservation in sorted(
            link.reservations(), key=lambda r: r.reservation_id
        ):
            running += reservation.bit_rate
            if running > budget + 1e-9:
                victims.add(reservation.holder)
    return tuple(flow for flow in transport.flows() if flow.flow_id in victims)


# -- the fault injector's spec matching, by a scan of the whole plan -------------------
#
# ``FaultInjector`` indexes its plan by kind; the reference visits every
# spec of the plan on every hook call and keeps those of the asked kind,
# aimed at the target or at ``*``, whose window is open.


class FullScanInjector(FaultInjector):
    """A :class:`FaultInjector` whose hooks match by scanning the plan."""

    def _matching(self, kind, target_id):
        now = self.clock.now()
        for index, spec in enumerate(self.plan.faults):
            if spec.kind is not kind:
                continue
            if spec.target_id not in (target_id, "*"):
                continue
            if spec.active_at(now):
                yield index, spec


# -- the event loop's firing order, from a plain list ---------------------------------
#
# ``repro.session.engine.EventLoop`` as its docstring states it: every
# event fires at its time, events at equal times fire in the order they
# were scheduled, cancelled events never fire.  The reference keeps its
# events in a list and, for each firing, stable-sorts what is left.


class ReferenceEvent:
    def __init__(self, time, index, callback):
        self.time = time
        self.index = index
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


def reference_firing_order(events):
    """``events`` in the order a loop owes them: a stable sort on
    ``(time, schedule index)``, cancelled events dropped."""
    return [
        event
        for event in sorted(events, key=lambda e: (e.time, e.index))
        if not event.cancelled
    ]


class ReferenceEventLoop:
    """``EventLoop``'s scheduling surface over a list and
    :func:`reference_firing_order`; no heap, no sequence counter."""

    def __init__(self):
        self.now = 0.0
        self._events = []
        self._scheduled = 0

    @property
    def pending(self):
        return len(reference_firing_order(self._events))

    def at(self, time, callback):
        # A time a round-off below now fires at now, as EventLoop.at says.
        time = max(float(time), self.now)
        event = ReferenceEvent(time, self._scheduled, callback)
        self._scheduled += 1
        self._events.append(event)
        return event

    def after(self, delay, callback):
        return self.at(self.now + delay, callback)

    def every(self, period, callback, *, until):
        def tick():
            callback()
            if self.now + period <= until + 1e-12:
                self.at(self.now + period, tick)

        if self.now + period <= until + 1e-12:
            self.at(self.now + period, tick)

    def _fire_head(self, horizon):
        order = reference_firing_order(self._events)
        if not order or order[0].time > horizon + 1e-12:
            return False
        head = order[0]
        self._events.remove(head)
        self.now = head.time
        head.callback()
        return True

    def run_until(self, time):
        while self._fire_head(time):
            pass
        self.now = max(self.now, time)

    def run(self):
        while self._fire_head(float("inf")):
            pass
