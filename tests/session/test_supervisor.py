"""Session supervision: heartbeats, stalls, dead sessions, adoption."""

import pytest

from repro.session.playout import SessionState
from repro.session.runtime import SessionRuntime
from repro.session.supervisor import SessionSupervisor
from repro.util.errors import ManagerCrashError, SessionError, ValidationError


@pytest.fixture
def runtime(manager, loop):
    return SessionRuntime(manager, loop)


@pytest.fixture
def session(runtime, manager, document, balanced_profile, client):
    result = manager.negotiate(
        document.document_id, balanced_profile, client
    )
    return runtime.start_session(result, balanced_profile, client)


@pytest.fixture
def supervisor(clock, runtime):
    return SessionSupervisor(
        clock=clock, runtime=runtime, heartbeat_timeout_s=30.0, period_s=5.0
    )


class TestConstruction:
    def test_timeout_must_be_positive(self, clock):
        with pytest.raises(ValidationError):
            SessionSupervisor(clock=clock, heartbeat_timeout_s=0.0)

    def test_period_must_be_positive(self, clock):
        with pytest.raises(ValidationError):
            SessionSupervisor(clock=clock, period_s=-1.0)

    def test_adopt_rejects_empty_holder(self, supervisor):
        with pytest.raises(SessionError):
            supervisor.adopt("")


class TestLiveSessions:
    def test_progress_is_the_heartbeat(self, supervisor, session, clock):
        entry = supervisor.watch(session)
        clock.advance(40.0)  # longer than the timeout, but playing
        assert supervisor.check() == []
        assert entry.last_heartbeat == clock.now()
        assert session.state is SessionState.PLAYING

    def test_completed_session_is_forgotten(
        self, supervisor, session, loop
    ):
        supervisor.watch(session)
        loop.run()
        assert session.state is SessionState.COMPLETED
        assert supervisor.check() == []
        assert supervisor.watch_count == 0

    def test_dead_session_is_adapted_onto_fresh_resources(
        self, supervisor, session, clock, servers, transport
    ):
        supervisor.watch(session)
        # The reservation vanishes underneath the playout (a reaped
        # lease, a wiped ledger): the next sweep must reclaim it —
        # here capacity is free, so release-or-adapt picks adapt.
        transport.release_all()
        for server in servers.values():
            server.release_all()
        clock.advance(5.0)
        acted = supervisor.check()
        assert len(acted) == 1
        assert session.state is SessionState.PLAYING
        assert transport.flow_count > 0  # re-reserved by the adaptation

    def test_dead_session_is_aborted_without_adaptation(
        self, manager, loop, clock, document, balanced_profile, client,
        servers, transport
    ):
        runtime = SessionRuntime(manager, loop, adaptation_enabled=False)
        result = manager.negotiate(
            document.document_id, balanced_profile, client
        )
        session = runtime.start_session(result, balanced_profile, client)
        supervisor = SessionSupervisor(
            clock=clock, runtime=runtime, heartbeat_timeout_s=30.0
        )
        supervisor.watch(session)
        transport.release_all()
        for server in servers.values():
            server.release_all()
        clock.advance(5.0)
        assert supervisor.check() == [session.holder]
        assert session.state is SessionState.ABORTED
        assert runtime.active_count == 0
        assert supervisor.watch_count == 0


class TestAdoptedHolders:
    def test_silence_invokes_the_release_closure(self, supervisor, clock):
        released = []
        supervisor.adopt("ghost", lambda when: released.append(when))
        clock.advance(31.0)
        assert supervisor.check() == ["ghost"]
        assert released == [pytest.approx(31.0)]
        assert supervisor.stats.sessions_released == 1

    def test_forget_cancels_the_watch(self, supervisor, clock):
        released = []
        supervisor.adopt("ghost", lambda when: released.append(when))
        supervisor.forget("ghost")
        clock.advance(100.0)
        assert supervisor.check() == []
        assert released == []


class TestArmedSweep:
    def test_sweep_runs_until_nothing_is_watched(
        self, supervisor, clock, loop
    ):
        released = []
        supervisor.adopt("ghost", lambda when: released.append(when))
        supervisor.arm(loop)
        supervisor.arm(loop)  # re-arming is a no-op, not a double sweep
        loop.run()
        # The sweep fired every period until the timeout reclaimed the
        # holder, then auto-stopped (the loop drained).
        assert released and released[0] == pytest.approx(35.0)
        assert supervisor.watch_count == 0

    def test_watched_playout_survives_the_sweep(
        self, supervisor, session, loop, transport
    ):
        supervisor.watch(session)
        supervisor.arm(loop)
        loop.run()
        assert session.state is SessionState.COMPLETED
        assert supervisor.stats.sessions_released == 0
        assert transport.flow_count == 0


class TestSweepSurvivesACrash:
    """A recovered holder's release journals RELEASED, so a manager
    crash can raise out of a sweep; the sweep must re-arm anyway, or
    supervision never resumes after the restart."""

    def test_sweep_rearms_after_a_raising_release(
        self, supervisor, clock, loop
    ):
        released = []

        def release(when):
            released.append(when)
            if len(released) == 1:
                raise ManagerCrashError("crash while journaling RELEASED")

        supervisor.adopt("ghost", release)
        supervisor.arm(loop)
        with pytest.raises(ManagerCrashError):
            loop.run()
        supervisor.arm(loop)  # a restart re-arms; a pending sweep makes it a no-op
        loop.run()
        assert released == [pytest.approx(35.0), pytest.approx(40.0)]
        assert supervisor.watch_count == 0
        assert supervisor.stats.sessions_released == 1
