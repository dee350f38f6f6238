"""The hold records step 5 builds: their contract and their ledgers.

``LinkReservation``, ``StreamReservation`` and ``FlowReservation`` are
immutable records built with one tuple allocation.  Whatever builds
them, they must keep the contract their readers rely on:

* assigning an attribute raises;
* equal fields give equal records with equal hashes;
* the field names and their order are fixed (journal payloads, reports
  and the crash-recovery scans read them by name).

The round trips drive ``TransportSystem.reserve`` / ``release`` and
``MediaServer.admit`` / ``release`` through generated interleavings
against a model that knows only the id schemes: flow ids are
``flow-1``, ``flow-2``, ... in reservation order, stream ids are
``<server>/stream-<n>`` in admission order, link reservation ids grow
by one per hop, and every ledger lists what is held in the order it
was taken.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmfs.admission import AdmissionController
from repro.cmfs.disk import DiskModel
from repro.cmfs.server import MediaServer, StreamReservation
from repro.network.link import LinkReservation
from repro.network.qosparams import FlowSpec
from repro.network.topology import Topology
from repro.network.transport import (
    FlowReservation,
    GuaranteeType,
    TransportSystem,
)

SPEC = FlowSpec(
    max_bit_rate=2e6, avg_bit_rate=1e6,
    max_delay_s=0.25, max_jitter_s=0.05, max_loss_rate=0.05,
)


def chain():
    """``A - B - C``, wide enough never to refuse a test flow."""
    topology = Topology()
    for node in "ABC":
        topology.add_node(node)
    topology.connect("A", "B", 1e9, link_id="L-AB")
    topology.connect("B", "C", 1e9, link_id="L-BC")
    return topology


def one_flow():
    return TransportSystem(chain()).reserve("A", "C", SPEC, holder="h")


def samples():
    flow = one_flow()
    stream = MediaServer("server-a").admit("variant", 1e6, holder="h")
    return {
        LinkReservation: flow.link_reservations[0],
        StreamReservation: stream,
        FlowReservation: flow,
    }


FIELDS = {
    LinkReservation: ("reservation_id", "link_id", "bit_rate", "holder"),
    StreamReservation: (
        "stream_id", "server_id", "variant_id", "rate_bps", "holder",
        "sequence",
    ),
    FlowReservation: (
        "flow_id", "source", "target", "spec", "guarantee", "route",
        "link_reservations", "holder",
    ),
}


@pytest.mark.parametrize("record_type", list(FIELDS), ids=lambda t: t.__name__)
class TestContract:
    def test_field_names_and_order(self, record_type):
        assert record_type._fields == FIELDS[record_type]
        record = samples()[record_type]
        assert tuple(
            getattr(record, name) for name in FIELDS[record_type]
        ) == tuple(record)

    def test_attribute_assignment_raises(self, record_type):
        record = samples()[record_type]
        for name in FIELDS[record_type]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_give_equal_records_and_hashes(self, record_type):
        record = samples()[record_type]
        twin = record_type(*(getattr(record, n) for n in FIELDS[record_type]))
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record
        first, *rest = FIELDS[record_type]
        other = record_type(f"{getattr(record, first)}-other", *(
            getattr(record, name) for name in rest
        ))
        assert other != record


def test_a_flow_bills_its_guarantee():
    flow = one_flow()
    assert flow.guarantee is GuaranteeType.GUARANTEED
    assert flow.reserved_bps == SPEC.max_bit_rate
    best_effort = TransportSystem(chain()).reserve(
        "A", "C", SPEC, guarantee=GuaranteeType.BEST_EFFORT,
    )
    assert best_effort.reserved_bps == SPEC.avg_bit_rate
    assert best_effort.holder == "anonymous"


# -- round trips against the id schemes -------------------------------------------


OPS = st.lists(
    st.tuples(st.sampled_from(["take", "give"]), st.integers(min_value=0)),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_flow_round_trips_follow_the_id_scheme(ops):
    topology = chain()
    transport = TransportSystem(topology)
    numbers = itertools.count(1)
    held: "list[FlowReservation]" = []
    for op, pick in ops:
        if op == "take":
            holder = f"holder-{pick % 3}"
            flow = transport.reserve("A", "C", SPEC, holder=holder)
            assert flow.flow_id == f"flow-{next(numbers)}"
            assert (flow.source, flow.target, flow.spec, flow.holder) == (
                "A", "C", SPEC, holder,
            )
            hops = flow.link_reservations
            assert [h.link_id for h in hops] == ["L-AB", "L-BC"]
            assert hops[1].reservation_id == hops[0].reservation_id + 1
            assert all(
                h.bit_rate == SPEC.max_bit_rate and h.holder == flow.flow_id
                for h in hops
            )
            held.append(flow)
        elif held:
            transport.release(held.pop(pick % len(held)))
        assert transport.flows() == tuple(held)
        for index, link in enumerate(topology.links()):
            assert link.reservations() == tuple(
                flow.link_reservations[index] for flow in held
            )
            assert link.reserved_bps == pytest.approx(
                SPEC.max_bit_rate * len(held)
            )
    for holder in ("holder-0", "holder-1", "holder-2"):
        assert transport.flows_for_holder(holder) == tuple(
            flow for flow in held if flow.holder == holder
        )


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_stream_round_trips_follow_the_id_scheme(ops):
    server = MediaServer(
        "server-a",
        admission=AdmissionController(DiskModel(), max_streams=1000),
    )
    sequences = itertools.count(1)
    held: "list[StreamReservation]" = []
    for op, pick in ops:
        if op == "take":
            holder = f"holder-{pick % 3}"
            stream = server.admit(f"variant-{pick % 5}", 1e5, holder=holder)
            sequence = next(sequences)
            assert (
                stream.stream_id, stream.server_id, stream.variant_id,
                stream.rate_bps, stream.holder, stream.sequence,
            ) == (
                f"server-a/stream-{sequence}", "server-a",
                f"variant-{pick % 5}", 1e5, holder, sequence,
            )
            held.append(stream)
        elif held:
            server.release(held.pop(pick % len(held)))
        assert server.reservations() == tuple(held)
        assert server.stream_rates() == tuple(s.rate_bps for s in held)
        assert server.aggregate_rate_bps == pytest.approx(1e5 * len(held))
    for holder in ("holder-0", "holder-1", "holder-2"):
        assert server.streams_for_holder(holder) == tuple(
            stream for stream in held if stream.holder == holder
        )


def test_ids_of_a_scripted_round_trip():
    """The literal ids a short script hands out and keeps."""
    transport = TransportSystem(chain())
    flows = [transport.reserve("A", "C", SPEC) for _ in range(3)]
    transport.release(flows[1])
    flows.append(transport.reserve("C", "A", SPEC))
    assert [f.flow_id for f in transport.flows()] == [
        "flow-1", "flow-3", "flow-4",
    ]
    server = MediaServer("server-b")
    streams = [server.admit("v", 1e5) for _ in range(3)]
    server.release(streams[0])
    server.admit("w", 2e5)
    assert [
        (s.stream_id, s.variant_id, s.sequence) for s in server.reservations()
    ] == [
        ("server-b/stream-2", "v", 2),
        ("server-b/stream-3", "v", 3),
        ("server-b/stream-4", "w", 4),
    ]
