"""Recovery paths: sessions that lose all resources and regain them."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.session.playout import SessionState
from repro.session.runtime import SessionRuntime


def arm(loop, servers, transport, *specs):
    """Arm ``specs`` as one fault plan on ``loop``."""
    FaultInjector(FaultPlan(specs)).install(servers, transport).arm(loop)


CLIENT_OUTAGE = FaultSpec(FaultKind.LINK_FLAP, "L-client", 10.0, 30.0, 1.0)


class TestResourceLossRecovery:
    def test_session_regains_resources_after_total_outage(
        self, manager, loop, document, balanced_profile, client,
        servers, transport,
    ):
        """The client access link dies completely (no alternate path
        exists), the session loses its guarantees, the link heals, and
        the next monitoring sweep re-secures resources."""
        runtime = SessionRuntime(manager, loop)
        result = manager.negotiate(document.document_id, balanced_profile, client)
        session = runtime.start_session(result, balanced_profile, client)
        arm(loop, servers, transport, CLIENT_OUTAGE)

        # Run until mid-outage: resources are gone.
        loop.run_until(20.0)
        assert session.record.resources_lost
        assert transport.flow_count == 0
        assert session.state is SessionState.DEGRADED

        # Run to completion: the link heals at t=40, a later sweep
        # re-reserves, and playout finishes with resources held.
        loop.run()
        assert session.state is SessionState.COMPLETED
        assert not session.record.resources_lost
        assert session.record.degraded_time_s > 0
        assert transport.flow_count == 0  # released at completion

    def test_total_outage_without_adaptation_stays_degraded(
        self, manager, loop, document, balanced_profile, client,
        servers, transport,
    ):
        runtime = SessionRuntime(manager, loop, adaptation_enabled=False)
        result = manager.negotiate(document.document_id, balanced_profile, client)
        session = runtime.start_session(result, balanced_profile, client)
        arm(loop, servers, transport, CLIENT_OUTAGE)
        loop.run()
        assert session.state is SessionState.COMPLETED
        # Without adaptation the violation simply rides out the episode.
        assert session.record.adaptations == 0
        assert session.record.degraded_time_s >= 25.0


class TestServerOutage:
    def test_server_degradation_triggers_switch_to_other_server(
        self, manager, loop, document, balanced_profile, client, servers,
        transport,
    ):
        runtime = SessionRuntime(manager, loop)
        result = manager.negotiate(document.document_id, balanced_profile, client)
        session = runtime.start_session(result, balanced_profile, client)
        used = result.chosen.offer.servers_used()
        victim = next(iter(used))
        arm(
            loop, servers, transport,
            FaultSpec(FaultKind.SERVER_BROWNOUT, victim, 10.0, 50.0, 1.0),
        )
        loop.run()
        assert session.state is SessionState.COMPLETED
        assert session.record.adaptations >= 1
