"""Multi-domain hierarchical reservation ([Haf 95b] extension)."""

import pytest

from repro.network.domains import (
    Domain,
    DomainMap,
    HierarchicalTransport,
)
from repro.network.qosparams import FlowSpec
from repro.network.topology import Topology
from repro.util.errors import CapacityError, NetworkError

SPEC = FlowSpec(
    max_bit_rate=8e6, avg_bit_rate=3e6,
    max_delay_s=0.25, max_jitter_s=0.05, max_loss_rate=0.05,
)


@pytest.fixture
def world():
    """Three domains in a chain: campus -- metro -- provider."""
    topo = Topology()
    topo.connect("srv", "metro-gw-a", 155e6, link_id="L1")      # provider internal
    topo.connect("metro-gw-a", "metro-gw-b", 155e6, link_id="L2")  # metro internal
    topo.connect("metro-gw-b", "campus-gw", 100e6, link_id="L3")   # into campus
    topo.connect("campus-gw", "cli", 100e6, link_id="L4")          # campus internal
    dmap = DomainMap(
        [
            Domain("provider"),
            Domain("metro", transit_quota_bps=20e6),
            Domain("campus"),
        ]
    )
    dmap.assign("srv", "provider")
    dmap.assign("metro-gw-a", "metro")
    dmap.assign("metro-gw-b", "metro")
    dmap.assign("campus-gw", "campus")
    dmap.assign("cli", "campus")
    return topo, dmap


@pytest.fixture
def transport(world):
    topo, dmap = world
    return HierarchicalTransport(topo, dmap)


class TestDomainMap:
    def test_unassigned_node_rejected(self, world):
        topo, dmap = world
        topo.graph.add_node("orphan")
        with pytest.raises(NetworkError):
            HierarchicalTransport(topo, dmap)

    def test_duplicate_domain_rejected(self):
        dmap = DomainMap([Domain("a")])
        with pytest.raises(NetworkError):
            dmap.add_domain(Domain("a"))

    def test_assign_unknown_domain_rejected(self):
        dmap = DomainMap([Domain("a")])
        with pytest.raises(NetworkError):
            dmap.assign("n", "ghost")

    def test_domain_of(self, world):
        _, dmap = world
        assert dmap.domain_of("srv").name == "provider"
        with pytest.raises(NetworkError):
            dmap.domain_of("ghost")


class TestHierarchicalReserve:
    def test_route_split_across_domains(self, transport, world):
        _, dmap = world
        route = transport.probe("srv", "cli", SPEC)
        owners = [
            dmap.link_owner(link, towards=node).name
            for link, node in zip(route.links, route.nodes[1:])
        ]
        assert owners == ["metro", "metro", "campus", "campus"]

    def test_reserve_reserves_all_links(self, transport, world):
        topo, _ = world
        flow = transport.reserve("srv", "cli", SPEC)
        for link_id in ("L1", "L2", "L3", "L4"):
            assert topo.link(link_id).reserved_bps == 8e6
        transport.release(flow)
        for link_id in ("L1", "L2", "L3", "L4"):
            assert topo.link(link_id).reserved_bps == 0.0

    def test_transit_quota_enforced(self, transport):
        # Metro's quota is 20 Mbps: two 8 Mbps flows fit, a third does not.
        flows = [transport.reserve("srv", "cli", SPEC) for _ in range(2)]
        assert transport.probe("srv", "cli", SPEC) is None
        with pytest.raises(CapacityError):
            transport.reserve("srv", "cli", SPEC)
        agent = transport.agents["metro"]
        assert agent.refusals >= 0  # probe refuses before the agent is asked
        # Releasing one restores admission.
        transport.release(flows.pop())
        retry = transport.reserve("srv", "cli", SPEC)
        transport.release(retry)
        for flow in flows:
            transport.release(flow)
        assert transport.agents["metro"].transit_reserved_bps == 0.0

    def test_quota_rollback_releases_other_domains(self, world):
        # Shrink the quota below a single flow: the provider segment is
        # reserved first, then metro refuses; everything must roll back.
        topo, dmap = world
        dmap2 = DomainMap(
            [
                Domain("provider"),
                Domain("metro", transit_quota_bps=1e6),
                Domain("campus"),
            ]
        )
        for node in ("srv",):
            dmap2.assign(node, "provider")
        for node in ("metro-gw-a", "metro-gw-b"):
            dmap2.assign(node, "metro")
        for node in ("campus-gw", "cli"):
            dmap2.assign(node, "campus")
        transport = HierarchicalTransport(topo, dmap2)
        assert transport.probe("srv", "cli", SPEC) is None
        with pytest.raises(CapacityError):
            transport.reserve("srv", "cli", SPEC)
        assert topo.total_reserved_bps() == 0.0
        assert transport.flow_count == 0

    def test_message_accounting(self, transport):
        before = transport.total_messages
        flow = transport.reserve("srv", "cli", SPEC)
        after_setup = transport.total_messages
        # Two messages (request + confirm) per domain segment.
        segment_count = 2  # metro (L1, L2), then campus (L3, L4)
        assert after_setup - before == 2 * segment_count
        transport.release(flow)
        assert transport.total_messages - after_setup == 2 * segment_count

    def test_holder_is_kept_for_the_recovery_scan(self, transport, world):
        """Crash recovery finds a multi-domain flow by its holder and
        gives back its link bandwidth and transit quota."""
        topo, _ = world
        flow = transport.reserve("srv", "cli", SPEC, holder="session-7")
        assert flow.holder == "session-7"
        assert transport.flows_for_holder("session-7") == (flow,)
        for leaked in transport.flows_for_holder("session-7"):
            transport.release(leaked)
        assert topo.total_reserved_bps() == 0.0
        assert transport.agents["metro"].transit_reserved_bps == 0.0

    def test_violated_flows_inherited(self, transport, world):
        topo, _ = world
        flow = transport.reserve("srv", "cli", SPEC)
        topo.link("L2").set_congestion(0.99)
        assert [f.flow_id for f in transport.violated_flows()] == [flow.flow_id]
        transport.release(flow)


class TestWithQoSManager:
    def test_manager_runs_unchanged_over_domains(
        self, world, database, servers, clock, document, balanced_profile
    ):
        """The QoS manager needs no changes over a multi-domain network
        — quota refusals behave like capacity refusals."""
        from repro.client.machine import ClientMachine
        from repro.core.negotiation import QoSManager
        from repro.core.status import NegotiationStatus

        topo = Topology()
        topo.connect("client-net", "metro-a", 100e6, link_id="LC")
        topo.connect("metro-a", "metro-b", 155e6, link_id="LM")
        topo.connect("metro-b", "server-a-net", 155e6, link_id="LA")
        topo.connect("metro-b", "server-b-net", 155e6, link_id="LB")
        dmap = DomainMap(
            [Domain("campus"), Domain("metro", transit_quota_bps=25e6),
             Domain("provider")]
        )
        dmap.assign("client-net", "campus")
        dmap.assign("metro-a", "metro")
        dmap.assign("metro-b", "metro")
        dmap.assign("server-a-net", "provider")
        dmap.assign("server-b-net", "provider")
        transport = HierarchicalTransport(topo, dmap)
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock,
        )
        client = ClientMachine("alice", access_point="client-net")
        results = []
        while True:
            result = manager.negotiate(
                document.document_id, balanced_profile, client
            )
            if result.status is NegotiationStatus.FAILED_TRY_LATER:
                break
            results.append(result)
            assert len(results) < 50
        assert results, "nothing admitted over the multi-domain network"
        # The metro quota binds before raw link capacity (25 < 100 Mbps).
        metro = transport.agents["metro"]
        assert metro.transit_reserved_bps <= 25e6 + 1e-6
        for result in results:
            result.commitment.release()
        assert metro.transit_reserved_bps == pytest.approx(0.0)
