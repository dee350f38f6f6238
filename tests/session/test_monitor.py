"""QoS monitor: mapping infrastructure violations to sessions."""

import pytest

from repro.session.monitor import QoSMonitor
from repro.session.playout import PlayoutSession


@pytest.fixture
def session(manager, document, balanced_profile, client):
    result = manager.negotiate(document.document_id, balanced_profile, client)
    result.commitment.confirm(0.0)
    return PlayoutSession(
        "sess-m", result, balanced_profile, client,
        started_at=0.0, duration_s=120.0,
    )


@pytest.fixture
def monitor(transport, servers):
    return QoSMonitor(transport, servers)


class TestScan:
    def test_healthy_system_no_violations(self, monitor, session):
        assert monitor.scan([session], now=1.0) == []

    def test_link_congestion_attributed(self, monitor, session, topology):
        topology.link("L-a").set_congestion(0.99)
        violations = monitor.scan([session], now=5.0)
        assert violations
        v = violations[0]
        assert v.session_id == "sess-m"
        assert v.source == "network"
        assert v.component == "L-a"
        assert v.detected_at == 5.0

    def test_server_degradation_attributed(self, monitor, session, servers):
        servers["server-a"].set_degradation(1.0)
        violations = monitor.scan([session], now=3.0)
        assert any(
            v.source == "server" and v.component == "server-a"
            for v in violations
        )

    def test_deduplicated_per_component(self, monitor, session, topology):
        topology.link("L-a").set_congestion(0.99)
        violations = monitor.scan([session], now=1.0)
        keys = [(v.session_id, v.source, v.component) for v in violations]
        assert len(keys) == len(set(keys))

    def test_unrelated_session_untouched(
        self, monitor, manager, document, balanced_profile, topology, servers
    ):
        from repro.client.machine import ClientMachine

        # Session on server-b path only; congest server-a's link.
        client_b = ClientMachine("bob", access_point="client-net")
        result = manager.negotiate(document.document_id, balanced_profile, client_b)
        result.commitment.confirm(0.0)
        session_b = PlayoutSession(
            "sess-b", result, balanced_profile, client_b,
            started_at=0.0, duration_s=60.0,
        )
        used = result.chosen.offer.servers_used()
        other = ({"server-a", "server-b"} - used) or {"server-b"}
        # Congest a server the session does not use.
        victim = next(iter(other))
        servers[victim].set_degradation(1.0)
        violations = monitor.scan([session_b], now=1.0)
        assert violations == []

