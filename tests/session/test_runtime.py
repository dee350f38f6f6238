"""Session runtime: the active-phase monitoring/adaptation loop."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.session.engine import EventLoop
from repro.session.playout import SessionState
from repro.session.runtime import SessionRuntime
from repro.util.errors import SessionError


def congest(loop, servers, transport, link_id, start_s, duration_s, severity):
    """Arm one congestion window on ``link_id``."""
    spec = FaultSpec(FaultKind.LINK_FLAP, link_id, start_s, duration_s, severity)
    FaultInjector(FaultPlan((spec,))).install(servers, transport).arm(loop)


@pytest.fixture
def runtime(manager, loop):
    return SessionRuntime(manager, loop)


@pytest.fixture
def negotiated(manager, document, balanced_profile, client):
    return manager.negotiate(document.document_id, balanced_profile, client)


class TestLifecycle:
    def test_plain_session_completes(self, runtime, negotiated,
                                     balanced_profile, client, loop, transport):
        session = runtime.start_session(negotiated, balanced_profile, client)
        assert runtime.active_count == 1
        loop.run()
        assert session.state is SessionState.COMPLETED
        assert runtime.active_count == 0
        assert runtime.finished == [session]
        assert transport.flow_count == 0

    def test_duration_defaults_to_document(self, runtime, negotiated,
                                           balanced_profile, client, document):
        session = runtime.start_session(negotiated, balanced_profile, client)
        assert session.duration_s == pytest.approx(document.duration_s)

    def test_abort(self, runtime, negotiated, balanced_profile, client, loop):
        session = runtime.start_session(negotiated, balanced_profile, client)
        loop.run_until(10.0)
        runtime.abort_session(session)
        assert session.state is SessionState.ABORTED
        assert runtime.active_count == 0

    def test_clock_mismatch_rejected(self, manager):
        from repro.util.clock import ManualClock

        with pytest.raises(SessionError):
            SessionRuntime(manager, EventLoop(ManualClock()))

    def test_requires_commitment(self, runtime, balanced_profile, client):
        from repro.core.negotiation import NegotiationResult
        from repro.core.status import NegotiationStatus

        bare = NegotiationResult(status=NegotiationStatus.FAILED_TRY_LATER)
        with pytest.raises(SessionError):
            runtime.start_session(bare, balanced_profile, client)


class TestAdaptationLoop:
    def test_congestion_triggers_switch(
        self, runtime, negotiated, balanced_profile, client, loop,
        transport, servers,
    ):
        session = runtime.start_session(negotiated, balanced_profile, client)
        first_offer = session.current_offer_id
        congest(loop, servers, transport, "L-a", 10.0, 30.0, 0.97)
        loop.run()
        assert session.state is SessionState.COMPLETED
        assert session.record.adaptations >= 1
        assert session.record.total_interruption_s > 0

    def test_interruption_extends_session(self, runtime, negotiated,
                                          balanced_profile, client, loop,
                                          transport, servers):
        session = runtime.start_session(negotiated, balanced_profile, client)
        congest(loop, servers, transport, "L-a", 10.0, 30.0, 0.97)
        loop.run()
        if session.record.adaptations:
            # completion happens later than the nominal duration
            assert loop.now >= session.duration_s

    def test_adaptation_disabled_marks_degraded(
        self, manager, loop, negotiated, balanced_profile, client,
        transport, servers,
    ):
        runtime = SessionRuntime(manager, loop, adaptation_enabled=False)
        session = runtime.start_session(negotiated, balanced_profile, client)
        congest(loop, servers, transport, "L-a", 10.0, 30.0, 0.97)
        loop.run()
        assert session.record.adaptations == 0
        assert session.record.degraded_time_s > 0

    def test_degradation_clears_when_congestion_heals(
        self, manager, loop, negotiated, balanced_profile, client,
        transport, servers,
    ):
        runtime = SessionRuntime(manager, loop, adaptation_enabled=False)
        session = runtime.start_session(negotiated, balanced_profile, client)
        congest(loop, servers, transport, "L-a", 10.0, 20.0, 0.97)
        loop.run()
        # ~20 s congested (plus detection lag), far below full duration.
        assert 15.0 <= session.record.degraded_time_s <= 30.0

    def test_violation_callback(self, manager, loop, negotiated,
                                balanced_profile, client, transport, servers):
        seen = []
        runtime = SessionRuntime(
            manager, loop, on_violation=seen.append,
        )
        runtime.start_session(negotiated, balanced_profile, client)
        congest(loop, servers, transport, "L-a", 5.0, 10.0, 0.99)
        loop.run()
        assert seen and seen[0].component == "L-a"


class TestMultipleSessions:
    def test_concurrent_sessions_complete(self, runtime, manager, document,
                                          balanced_profile, client, loop):
        sessions = []
        for _ in range(3):
            result = manager.negotiate(
                document.document_id, balanced_profile, client
            )
            assert result.succeeded
            sessions.append(
                runtime.start_session(result, balanced_profile, client)
            )
        loop.run()
        assert all(s.state is SessionState.COMPLETED for s in sessions)
