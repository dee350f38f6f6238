"""Transport system: atomic flow reservations, probing, violations."""

import pytest

from repro.network.qosparams import FlowSpec
from repro.network.topology import Topology
from repro.network.transport import GuaranteeType, TransportSystem
from repro.util.errors import CapacityError, ReservationError

SPEC = FlowSpec(
    max_bit_rate=8e6, avg_bit_rate=3e6,
    max_delay_s=0.25, max_jitter_s=0.01, max_loss_rate=0.01,
)


@pytest.fixture
def net():
    t = Topology()
    t.connect("srv", "bb", 20e6, link_id="L1")
    t.connect("bb", "cli", 20e6, link_id="L2")
    return t


@pytest.fixture
def transport(net):
    return TransportSystem(net)


class TestGuaranteeType:
    def test_billable_rates(self):
        assert GuaranteeType.GUARANTEED.billable_rate(SPEC) == 8e6
        assert GuaranteeType.BEST_EFFORT.billable_rate(SPEC) == 3e6


class TestProbe:
    def test_probe_finds_route(self, transport):
        route = transport.probe("srv", "cli", SPEC)
        assert route is not None and len(route.links) == 2

    def test_probe_respects_guarantee_rate(self, transport, net):
        net.link("L1").reserve(14e6, holder="x")  # 6e6 left < peak 8e6
        assert transport.probe("srv", "cli", SPEC) is None
        assert (
            transport.probe("srv", "cli", SPEC, GuaranteeType.BEST_EFFORT)
            is not None
        )

    def test_probe_checks_qos_bounds(self, net):
        tight = FlowSpec(1e6, 1e6, max_delay_s=0.001, max_jitter_s=0.01,
                         max_loss_rate=0.01)
        transport = TransportSystem(net)
        assert transport.probe("srv", "cli", tight) is None


class TestReserve:
    def test_reserves_every_link(self, transport, net):
        flow = transport.reserve("srv", "cli", SPEC)
        assert net.link("L1").reserved_bps == 8e6
        assert net.link("L2").reserved_bps == 8e6
        assert flow.reserved_bps == 8e6

    def test_best_effort_reserves_avg(self, transport, net):
        transport.reserve(
            "srv", "cli", SPEC, guarantee=GuaranteeType.BEST_EFFORT
        )
        assert net.link("L1").reserved_bps == 3e6

    def test_no_capacity_raises(self, transport, net):
        net.link("L2").reserve(19e6, holder="x")
        with pytest.raises(CapacityError):
            transport.reserve("srv", "cli", SPEC)

    def test_release(self, transport, net):
        flow = transport.reserve("srv", "cli", SPEC)
        transport.release(flow)
        assert net.link("L1").reserved_bps == 0.0
        assert transport.flow_count == 0

    def test_release_unknown(self, transport):
        with pytest.raises(ReservationError):
            transport.release("flow-404")

    def test_release_all(self, transport, net):
        transport.reserve("srv", "cli", SPEC)
        transport.reserve("srv", "cli", SPEC)
        transport.release_all()
        assert net.link("L1").reserved_bps == 0.0

    def test_flow_lookup(self, transport):
        flow = transport.reserve("srv", "cli", SPEC)
        assert transport.flow(flow.flow_id) is flow
        with pytest.raises(ReservationError):
            transport.flow("nope")


class TestViolations:
    def test_congestion_flags_flow(self, transport, net):
        flow = transport.reserve("srv", "cli", SPEC)
        assert transport.violated_flows() == ()
        net.link("L1").set_congestion(0.9)
        assert [f.flow_id for f in transport.violated_flows()] == [flow.flow_id]

    def test_earlier_flow_survives_partial_congestion(self, transport, net):
        first = transport.reserve("srv", "cli", SPEC)
        second = transport.reserve("srv", "cli", SPEC)
        net.link("L1").set_congestion(0.5)  # 10e6 effective, 16e6 reserved
        violated = {f.flow_id for f in transport.violated_flows()}
        assert violated == {second.flow_id}

    def test_path_qos(self, transport):
        flow = transport.reserve("srv", "cli", SPEC)
        assert flow.route.qos.delay_s == pytest.approx(0.004)
