"""A multi-domain transport against a flat one on a twin topology.

A hypothesis state machine builds two identical topologies, puts a flat
:class:`TransportSystem` over one and a :class:`HierarchicalTransport`
over the other, and drives both through the same reservations (both
guarantee classes, shared holders), releases in arbitrary order,
congestion, link failure and restoration.  The metro domain's transit
quota is drawn per run, ``None`` (unlimited) included.

* The hierarchical transport refuses a flow exactly when the flat one
  does, or when the quota arithmetic says so: some domain the route
  charges (the domain of every node entered along it) already carries
  enough transit that the flow's billed rate would exceed its quota.
  A refused flow moves nothing, neither link ledgers nor agent state.
* Otherwise both admit it, and after every step flow ids, routes, each
  link's ledger ``(holder, rate)``, ``flows_for_holder`` and
  ``violated_flows()`` are equal across the twins.
* Every agent's ``transit_reserved_bps`` is the sum of the live flows
  that cross it; its ``messages`` rise by 2 per segment per set-up and
  per tear-down, a segment being a maximal run of links charged to one
  domain.

The topology keeps every domain contiguous on any simple path (the
campus and each server hang off the metro by one gateway link), so no
route enters one domain twice.
"""

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

from repro.network.domains import Domain, DomainMap, HierarchicalTransport
from repro.network.qosparams import FlowSpec
from repro.network.topology import Topology
from repro.network.transport import GuaranteeType, TransportSystem
from repro.util.errors import CapacityError

CAPACITY = 100e6
DOMAIN_OF = {
    "srv-1": "provider", "srv-2": "provider",
    "m-1": "metro", "m-2": "metro", "m-3": "metro",
    "gw": "campus", "cli-1": "campus", "cli-2": "campus",
}
LINKS = (
    ("srv-1", "m-1", 1.0), ("srv-2", "m-2", 1.0),
    ("m-1", "m-2", 1.0), ("m-2", "m-3", 1.0), ("m-1", "m-3", 3.0),
    ("m-3", "gw", 1.0), ("gw", "cli-1", 1.0), ("gw", "cli-2", 1.0),
    ("cli-1", "cli-2", 2.0),
)
SOURCES = ("srv-1", "srv-2", "m-1")
TARGETS = ("cli-1", "cli-2", "gw", "m-3")
HOLDERS = ("session-1", "session-2", "session-3")
RATES = st.one_of(
    st.sampled_from([CAPACITY / 2, CAPACITY / 3, 30e6, 8e6, 1e6]),
    st.floats(min_value=1e5, max_value=CAPACITY, allow_nan=False),
)
FRACTIONS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.9]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def build_topology():
    topology = Topology()
    for a, b, weight in LINKS:
        topology.connect(
            a, b, CAPACITY, cost_weight=weight, link_id=f"L-{a}-{b}"
        )
    return topology


def segments(nodes):
    """The domains a route charges, one entry per segment: links are
    charged to the domain they enter."""
    charged = []
    for node in nodes[1:]:
        if not charged or charged[-1] != DOMAIN_OF[node]:
            charged.append(DOMAIN_OF[node])
    return charged


class DomainTwinMachine(RuleBasedStateMachine):
    @initialize(quota=st.sampled_from([None, 20e6, 40e6, 75e6]))
    def build(self, quota):
        self.quota = quota
        self.flat = TransportSystem(build_topology())
        dmap = DomainMap([
            Domain("provider"),
            Domain("metro", transit_quota_bps=quota),
            Domain("campus"),
        ])
        for node, domain in DOMAIN_OF.items():
            dmap.assign(node, domain)
        self.hier = HierarchicalTransport(build_topology(), dmap)
        self.transit = {name: 0.0 for name in ("provider", "metro", "campus")}

    def _links(self, index):
        ids = [link.link_id for link in self.flat.topology.links()]
        link_id = ids[index % len(ids)]
        return self.flat.topology.link(link_id), self.hier.topology.link(link_id)

    def _messages(self):
        return {name: agent.messages for name, agent in self.hier.agents.items()}

    # (``target`` is a keyword hypothesis reserves for bundles.)
    @rule(
        source=st.sampled_from(SOURCES),
        sink=st.sampled_from(TARGETS),
        peak=RATES,
        average_share=st.sampled_from([1.0, 0.5]),
        guarantee=st.sampled_from(list(GuaranteeType)),
        holder=st.sampled_from(HOLDERS),
    )
    def reserve(self, source, sink, peak, average_share, guarantee, holder):
        spec = FlowSpec(
            max_bit_rate=peak, avg_bit_rate=peak * average_share,
            max_delay_s=0.25, max_jitter_s=0.05, max_loss_rate=0.05,
        )
        rate = guarantee.billable_rate(spec)
        route = self.flat.probe(source, sink, spec, guarantee)
        over_quota = route is not None and self.quota is not None and (
            "metro" in segments(route.nodes)
            and self.transit["metro"] + rate > self.quota + 1e-9
        )
        messages = self._messages()
        if route is None or over_quota:
            assert self.hier.probe(source, sink, spec, guarantee) is None
            with pytest.raises(CapacityError):
                self.hier.reserve(
                    source, sink, spec, guarantee=guarantee, holder=holder
                )
            assert self._messages() == messages
            return
        flat = self.flat.reserve(
            source, sink, spec, guarantee=guarantee, holder=holder
        )
        hier = self.hier.reserve(
            source, sink, spec, guarantee=guarantee, holder=holder
        )
        assert hier.flow_id == flat.flow_id
        assert hier.route.nodes == flat.route.nodes
        assert hier.holder == holder
        charged = segments(hier.route.nodes)
        expected = dict(messages)
        for domain in charged:
            expected[domain] += 2
            self.transit[domain] += rate
        assert self._messages() == expected

    @precondition(lambda self: self.flat.flow_count)
    @rule(index=st.integers(min_value=0))
    def release(self, index):
        flows = self.flat.flows()
        victim = flows[index % len(flows)]
        messages = self._messages()
        self.flat.release(victim.flow_id)
        self.hier.release(victim.flow_id)
        expected = dict(messages)
        for domain in segments(victim.route.nodes):
            expected[domain] += 2
            self.transit[domain] -= victim.reserved_bps
        assert self._messages() == expected

    @rule(index=st.integers(min_value=0), fraction=FRACTIONS)
    def congest(self, index, fraction):
        for link in self._links(index):
            link.set_congestion(fraction)

    @rule(index=st.integers(min_value=0))
    def fail(self, index):
        for link in self._links(index):
            link.set_congestion(1.0)

    @rule(index=st.integers(min_value=0))
    def restore(self, index):
        for link in self._links(index):
            link.set_congestion(0.0)

    @invariant()
    def flows_agree(self):
        def shape(flows):
            return [
                (f.flow_id, f.route.nodes, f.holder, f.reserved_bps)
                for f in flows
            ]

        assert shape(self.hier.flows()) == shape(self.flat.flows())
        for holder in HOLDERS:
            assert shape(self.hier.flows_for_holder(holder)) == shape(
                self.flat.flows_for_holder(holder)
            )

    @invariant()
    def link_ledgers_agree(self):
        for link in self.flat.topology.links():
            twin = self.hier.topology.link(link.link_id)
            assert [(r.holder, r.bit_rate) for r in twin.reservations()] == [
                (r.holder, r.bit_rate) for r in link.reservations()
            ]
            assert twin.reserved_bps == link.reserved_bps

    @invariant()
    def violated_flows_agree(self):
        assert [f.flow_id for f in self.hier.violated_flows()] == [
            f.flow_id for f in self.flat.violated_flows()
        ]

    @invariant()
    def transit_is_the_sum_of_live_flows(self):
        for name, agent in self.hier.agents.items():
            assert agent.transit_reserved_bps == pytest.approx(
                self.transit[name], abs=1e-3
            )
            assert agent.refusals == 0  # the quota refuses in the probe


DomainTwinMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestDomainTwin = DomainTwinMachine.TestCase
