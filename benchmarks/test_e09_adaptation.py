"""E9 — automatic adaptation vs none under congestion episodes.

Reproduces the paper's adaptation claim (§1 point 4, §4): sessions under
component congestion survive with a short transition interruption when
adaptation is on, and spend the whole episode degraded when it is off.

Reproduction target (shape): with adaptation, degraded time collapses to
(near) zero at the price of one ~2 s interruption per episode; without,
degraded time ≈ episode duration.
"""

import pytest

from repro.client.machine import ClientMachine
from repro.core import QoSManager, standard_profiles
from repro.cmfs import MediaServer
from repro.documents import make_news_article
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.metadata import MetadataDatabase
from repro.network import Topology, TransportSystem
from repro.session import EventLoop, SessionRuntime
from repro.util.clock import ManualClock
from repro.util.tables import render_table

EPISODE = FaultSpec(FaultKind.LINK_FLAP, "L-a", start_s=10.0,
                    duration_s=30.0, value=0.97)


def run_session(adaptation_enabled: bool):
    document = make_news_article("doc.e9", duration_s=120.0)
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
        manager, loop, adaptation_enabled=adaptation_enabled
    )
    profile = next(p for p in standard_profiles() if p.name == "balanced")
    client = ClientMachine("alice", access_point="client-net")
    result = manager.negotiate(document.document_id, profile, client)
    assert result.succeeded
    session = runtime.start_session(result, profile, client)
    FaultInjector(FaultPlan((EPISODE,))).install(servers, transport).arm(loop)
    loop.run()
    assert transport.flow_count == 0
    return session


@pytest.fixture(scope="module")
def outcomes():
    return {
        "with adaptation": run_session(True),
        "without adaptation": run_session(False),
    }


def test_e09_adaptation_comparison(benchmark, outcomes, publish):
    benchmark.pedantic(lambda: run_session(True), rounds=3, iterations=1)

    adapted = outcomes["with adaptation"]
    frozen = outcomes["without adaptation"]

    # Both sessions finish (the stream survives either way here)...
    assert adapted.record.completed and frozen.record.completed
    # ...but adaptation trades the degradation for a short interruption.
    assert adapted.record.adaptations >= 1
    assert adapted.record.degraded_time_s < 5.0
    assert frozen.record.adaptations == 0
    assert frozen.record.degraded_time_s >= EPISODE.duration_s * 0.6
    assert (
        adapted.record.total_interruption_s < frozen.record.degraded_time_s
    )

    rows = []
    for label, session in outcomes.items():
        record = session.record
        rows.append(
            (
                label,
                record.adaptations,
                record.failed_adaptations,
                f"{record.total_interruption_s:.1f} s",
                f"{record.degraded_time_s:.1f} s",
                "yes" if record.completed else "no",
            )
        )
    publish(
        "E09",
        render_table(
            ("mode", "adaptations", "failed", "interruption",
             "degraded time", "completed"),
            rows,
            title="E9 - one 30 s / 97% congestion episode on the serving "
                  "link (Sec 4 adaptation procedure)",
        ),
    )


def test_e09_transition_overhead_sweep(benchmark, publish):
    """Ablation: the transition procedure's overhead knob — the paper
    calls its stop/restart transition 'a simple one'; the cost of that
    simplicity is the interruption length."""
    import repro.session.runtime as runtime_mod

    def run_with_overhead(overhead):
        document = make_news_article("doc.e9b", duration_s=120.0)
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
            database=database,
            transport=transport,
            servers=servers,
            clock=clock,
        )
        loop = EventLoop(clock)
        runtime = SessionRuntime(
            manager, loop, transition_overhead_s=overhead
        )
        profile = next(p for p in standard_profiles() if p.name == "balanced")
        client = ClientMachine("alice", access_point="client-net")
        result = manager.negotiate(document.document_id, profile, client)
        session = runtime.start_session(result, profile, client)
        FaultInjector(FaultPlan((EPISODE,))).install(
            servers, transport
        ).arm(loop)
        loop.run()
        return session, loop.now

    benchmark.pedantic(lambda: run_with_overhead(2.0), rounds=3, iterations=1)

    rows = []
    finish_times = []
    for overhead in (0.5, 2.0, 8.0):
        session, finished_at = run_with_overhead(overhead)
        finish_times.append(finished_at)
        rows.append(
            (
                f"{overhead:g} s",
                session.record.adaptations,
                f"{session.record.total_interruption_s:.1f} s",
                f"{finished_at:.1f} s",
            )
        )
    assert finish_times == sorted(finish_times)
    publish(
        "E09b",
        render_table(
            ("transition overhead", "adaptations", "interruption",
             "session finished at"),
            rows,
            title="E9b - ablation: stop/restart transition overhead",
        ),
    )
