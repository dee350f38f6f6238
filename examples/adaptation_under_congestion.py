#!/usr/bin/env python3
"""Automatic adaptation: a link degrades mid-playout, the QoS manager
switches the session to an alternate configuration without user
intervention (paper §4, adaptation; §1 characteristic 4).

The scenario: the session's video streams from server-a; 10 seconds into
playout the server-a access link loses 97% of its capacity for 30
seconds.  The monitor detects the violation, the adaptation procedure
re-runs step 5 over the remaining classified offers (stop at current
position → reserve alternate → restart), and playout completes with one
short interruption instead of a long stall.

Run:  python examples/adaptation_under_congestion.py
"""

from repro import QoSManager, standard_profiles
from repro.client import ClientMachine
from repro.cmfs import MediaServer
from repro.documents import make_news_article
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.metadata import MetadataDatabase
from repro.network import Topology, TransportSystem
from repro.session import EventLoop, SessionRuntime
from repro.util.clock import ManualClock


def build(adaptation_enabled: bool):
    document = make_news_article("doc.adapt", duration_s=120.0)
    database = MetadataDatabase()
    database.insert_document(document)
    topology = Topology()
    topology.connect("client-net", "backbone", 100e6, link_id="L-client")
    topology.connect("backbone", "server-a-net", 155e6, link_id="L-a")
    topology.connect("backbone", "server-b-net", 155e6, link_id="L-b")
    servers = {
        server.server_id: server
        for server in (MediaServer("server-a"), MediaServer("server-b"))
    }
    transport = TransportSystem(topology)
    clock = ManualClock()
    manager = QoSManager(
        database=database, transport=transport, servers=servers, clock=clock
    )
    loop = EventLoop(clock)
    runtime = SessionRuntime(
        manager, loop, adaptation_enabled=adaptation_enabled,
        on_violation=lambda v: print(
            f"  t={v.detected_at:6.1f}s  violation: {v.source} {v.component} "
            f"hits {v.session_id}"
        ),
    )
    return document, manager, loop, runtime, transport, servers


def run(adaptation_enabled: bool) -> None:
    label = "WITH adaptation" if adaptation_enabled else "WITHOUT adaptation"
    print(f"--- {label} ---")
    document, manager, loop, runtime, transport, servers = build(
        adaptation_enabled
    )
    profile = standard_profiles()[1]  # balanced
    client = ClientMachine("alice", access_point="client-net")
    result = manager.negotiate(document.document_id, profile, client)
    print(f"  negotiated: {result.status}, offer "
          f"{result.chosen.offer.offer_id} on "
          f"{sorted(result.chosen.offer.servers_used())}")
    session = runtime.start_session(result, profile, client)

    plan = FaultPlan(
        (FaultSpec(FaultKind.LINK_FLAP, "L-a", start_s=10.0, duration_s=30.0,
                   value=0.97),)
    )
    FaultInjector(plan).install(servers, transport).arm(loop)
    loop.run()

    record = session.record
    print(f"  outcome: {session.state.value}")
    print(f"    adaptations         : {record.adaptations}")
    print(f"    failed adaptations  : {record.failed_adaptations}")
    print(f"    interruption time   : {record.total_interruption_s:.1f} s")
    print(f"    degraded time       : {record.degraded_time_s:.1f} s")
    print()


def main() -> None:
    run(adaptation_enabled=True)
    run(adaptation_enabled=False)


if __name__ == "__main__":
    main()
