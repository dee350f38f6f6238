"""Conservation properties of the reservation substrates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmfs.server import MediaServer
from repro.network.link import Link
from repro.network.qosparams import FlowSpec
from repro.network.topology import Topology
from repro.network.transport import TransportSystem
from repro.util.errors import AdmissionError, CapacityError


class TestLinkConservation:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["reserve", "release"]),
                st.floats(min_value=1e3, max_value=5e6, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_reserved_equals_sum_of_active(self, operations):
        link = Link("L", "a", "b", 10e6)
        active = []
        for op, rate in operations:
            if op == "reserve":
                try:
                    active.append(link.reserve(rate, holder="h"))
                except CapacityError:
                    pass
            elif active:
                link.release(active.pop())
        assert link.reserved_bps <= link.capacity_bps + 1e-6
        expected = sum(r.bit_rate for r in active)
        assert abs(link.reserved_bps - expected) < 1e-6
        for reservation in list(active):
            link.release(reservation)
        assert link.reserved_bps == 0.0


class TestTransportConservation:
    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_flows_and_links_agree(self, script):
        topo = Topology()
        topo.connect("s", "m", 30e6, link_id="L1")
        topo.connect("m", "c", 30e6, link_id="L2")
        transport = TransportSystem(topo)
        spec = FlowSpec(4e6, 2e6, 0.25, 0.02, 0.05)
        flows = []
        for do_reserve in script:
            if do_reserve:
                try:
                    flows.append(transport.reserve("s", "c", spec))
                except CapacityError:
                    pass
            elif flows:
                transport.release(flows.pop())
            # Invariant: every link carries exactly flow_count x rate.
            expected = len(flows) * 4e6
            assert abs(topo.link("L1").reserved_bps - expected) < 1e-3
            assert abs(topo.link("L2").reserved_bps - expected) < 1e-3
        transport.release_all()
        assert topo.total_reserved_bps() == 0.0


class TestServerConservation:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.floats(min_value=1e5, max_value=10e6, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40)
    def test_aggregate_rate_matches_streams(self, script):
        server = MediaServer("s")
        active = []
        for admit, rate in script:
            if admit:
                try:
                    active.append(server.admit("v", rate))
                except AdmissionError:
                    pass
            elif active:
                server.release(active.pop())
            expected = sum(r.rate_bps for r in active)
            assert abs(server.aggregate_rate_bps - expected) < 1e-3
            assert server.stream_count == len(active)
        # Admission invariant: what was admitted is always feasible.
        assert server.disk.round_feasibility(server.stream_rates()).feasible
