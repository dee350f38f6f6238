"""One topology's links and flows under every interleaving, against a
from-scratch reference.

A hypothesis state machine drives one :class:`Topology` and the
:class:`TransportSystem` over it through flow reservations (both
guarantee classes, bounds tight enough for delay, jitter and loss to
refuse a route), releases in arbitrary order, congestion, link failure
and restoration, and new links.  After every step the route memo, the
"unconstrained for r" shortcut and the shed flows must answer what
``tests/oracle.py`` computes with no memo and no kept state:

* ``unconstrained_for(r)`` equals a per-link ``can_reserve`` scan;
* ``find_route`` equals a fresh, uncached bandwidth-weighted Dijkstra;
* ``reserve`` raises exactly when ``probe`` returns None, and ``probe``
  equals the fresh route filtered by its folded QoS;
* flow ids are ``flow-1``, ``flow-2``, ... in reservation order;
* ``violated_flows()`` equals the sort-by-reservation-id reference, in
  the same order, and every link's ledger is in reservation-id order.

The link capacities are a few flows wide, so links fill, congestion
oversubscribes them and the constrained branch of routing runs.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.network.qosparams import FlowSpec
from repro.network.routing import find_route
from repro.network.topology import Topology
from repro.network.transport import GuaranteeType, TransportSystem
from repro.util.errors import CapacityError, NoRouteError

from ..oracle import (
    reference_probe,
    reference_route_nodes,
    reference_unconstrained_for,
    reference_violated_flows,
)

CAPACITY = 100e6
# "E" starts isolated and "Z" is never in the graph.
NODES = ("A", "B", "C", "D", "E")
ENDPOINTS = NODES + ("Z",)
DIAMOND = (("A", "B", 1.0), ("B", "D", 1.0), ("A", "C", 2.0), ("C", "D", 2.0))
EXTRA_PAIRS = (("A", "D"), ("B", "C"), ("D", "E"), ("C", "E"), ("A", "E"))

RATES = st.one_of(
    st.sampled_from([CAPACITY / 2, CAPACITY / 3, CAPACITY / 7, 30e6, 1e6]),
    st.floats(min_value=1e5, max_value=CAPACITY, allow_nan=False),
)
PROBE_RATES = (1e6, CAPACITY / 3, 45e6, CAPACITY)
FRACTIONS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
# One hop of the default link is 2 ms / 1 ms / 0.05 %; these bounds
# let one, two or any number of hops through.
DELAYS = st.sampled_from([0.0025, 0.0045, 0.25])
JITTERS = st.sampled_from([0.0015, 0.0025, 0.05])
LOSSES = st.sampled_from([0.0006, 0.0011, 0.05])


class TransportLedgerMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.topology = Topology()
        for node in NODES:
            self.topology.graph.add_node(node)
        for a, b, weight in DIAMOND:
            self.topology.connect(
                a, b, CAPACITY, cost_weight=weight, link_id=f"L-{a}{b}"
            )
        self.transport = TransportSystem(self.topology)
        self.flow_numbers = itertools.count(1)
        self.holders = (f"session-{n}" for n in itertools.count(1))

    def _link(self, index):
        links = self.topology.links()
        return links[index % len(links)]

    # (``target`` is a keyword hypothesis reserves for bundles.)
    @rule(
        # Half the flows share the diamond, so links fill and shed.
        ends=st.one_of(
            st.just(("A", "D")),
            st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS)),
        ),
        peak=RATES,
        average_share=st.sampled_from([1.0, 0.5, 0.1]),
        guarantee=st.sampled_from(list(GuaranteeType)),
        delay=DELAYS, jitter=JITTERS, loss=LOSSES,
    )
    def reserve(
        self, ends, peak, average_share, guarantee, delay, jitter, loss,
    ):
        source, target = ends
        spec = FlowSpec(
            max_bit_rate=peak, avg_bit_rate=peak * average_share,
            max_delay_s=delay, max_jitter_s=jitter, max_loss_rate=loss,
        )
        transport, holder = self.transport, next(self.holders)
        expected = reference_probe(
            self.topology, source, target, spec, guarantee
        )
        probed = transport.probe(source, target, spec, guarantee)
        assert (None if probed is None else probed.nodes) == expected
        before = transport.flows()
        reserved = [link.reserved_bps for link in self.topology.links()]
        if probed is None:
            with pytest.raises(CapacityError):
                transport.reserve(
                    source, target, spec, guarantee=guarantee, holder=holder
                )
            assert transport.flows() == before
            assert [
                link.reserved_bps for link in self.topology.links()
            ] == reserved
            return
        flow = transport.reserve(
            source, target, spec, guarantee=guarantee, holder=holder
        )
        assert flow.flow_id == f"flow-{next(self.flow_numbers)}"
        assert flow.holder == holder
        assert flow.route.nodes == expected
        assert flow.reserved_bps == guarantee.billable_rate(spec)
        assert transport.flows() == before + (flow,)
        for link, held in zip(flow.route.links, flow.link_reservations):
            assert held.holder == flow.flow_id
            assert held.bit_rate == flow.reserved_bps
            assert held in link.reservations()

    @precondition(lambda self: self.transport.flow_count)
    @rule(index=st.integers(min_value=0))
    def release(self, index):
        flows = self.transport.flows()
        victim = flows[index % len(flows)]
        self.transport.release(victim)
        assert not self.transport.has_flow(victim.flow_id)
        for link, held in zip(victim.route.links, victim.link_reservations):
            assert held not in link.reservations()

    @rule(index=st.integers(min_value=0), fraction=FRACTIONS)
    def congest(self, index, fraction):
        self._link(index).set_congestion(fraction)

    @rule(index=st.integers(min_value=0))
    def fail(self, index):
        self._link(index).set_congestion(1.0)

    @rule(index=st.integers(min_value=0))
    def restore(self, index):
        self._link(index).set_congestion(0.0)

    @rule(
        pair=st.sampled_from(EXTRA_PAIRS),
        capacity=st.sampled_from([CAPACITY, CAPACITY / 2]),
        weight=st.sampled_from([0.5, 1.0, 3.0]),
        delay=st.sampled_from([0.001, 0.002]),
    )
    def add_link(self, pair, capacity, weight, delay):
        a, b = pair
        if self.topology.graph.has_edge(a, b):
            return
        self.topology.connect(
            a, b, capacity, cost_weight=weight, delay_s=delay,
            link_id=f"L-{a}{b}",
        )

    @invariant()
    def unconstrained_is_a_link_scan(self):
        for rate in PROBE_RATES:
            assert self.topology.unconstrained_for(
                rate
            ) == reference_unconstrained_for(self.topology, rate)

    @invariant()
    def routes_equal_a_fresh_search(self):
        for source, target in (("A", "D"), ("D", "A"), ("B", "C"), ("A", "E")):
            for rate in PROBE_RATES:
                expected = reference_route_nodes(
                    self.topology, source, target, rate
                )
                try:
                    nodes = find_route(self.topology, source, target, rate).nodes
                except NoRouteError:
                    nodes = None
                assert nodes == expected

    @invariant()
    def shed_flows_equal_a_re_sort(self):
        assert self.transport.violated_flows() == reference_violated_flows(
            self.transport
        )

    @invariant()
    def ledgers_agree(self):
        """Links hold exactly the flows' link reservations, each link's
        in reservation-id order, and its total is their sum."""
        held = {
            (reservation.link_id, reservation.reservation_id)
            for flow in self.transport.flows()
            for reservation in flow.link_reservations
        }
        on_links = set()
        for link in self.topology.links():
            ids = [r.reservation_id for r in link.reservations()]
            assert ids == sorted(ids)
            on_links |= {(link.link_id, i) for i in ids}
            assert link.reserved_bps == pytest.approx(
                sum(r.bit_rate for r in link.reservations()), abs=1e-3
            )
        assert on_links == held


TransportLedgerMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestTransportLedger = TransportLedgerMachine.TestCase


def test_late_comers_are_shed_first_after_an_early_release():
    """Three flows over one link, the oldest released: a congestion that
    leaves room for one keeps the older survivor and sheds the newer."""
    topology = Topology()
    link = topology.connect("A", "B", CAPACITY, link_id="L-AB")
    transport = TransportSystem(topology)
    spec = FlowSpec(
        max_bit_rate=30e6, avg_bit_rate=30e6,
        max_delay_s=0.25, max_jitter_s=0.05, max_loss_rate=0.05,
    )
    first, second, third = (transport.reserve("A", "B", spec) for _ in range(3))
    transport.release(first)
    link.set_congestion(0.5)
    assert transport.violated_flows() == (third,)
    assert transport.violated_flows() == reference_violated_flows(transport)
    assert [r.holder for r in link.reservations()] == [
        second.flow_id, third.flow_id,
    ]
