"""The storm controller: wiring, wave buffering, class batching."""

from types import SimpleNamespace

import pytest

from repro.session.runtime import SessionRuntime
from repro.storm import StormController


@pytest.fixture
def runtime(manager, loop):
    return SessionRuntime(manager, loop)


def stub_session(session_id, document_id, offer_id):
    """Just enough surface for the batching key computation."""
    return SimpleNamespace(
        session_id=session_id,
        current_offer_id=offer_id,
        result=SimpleNamespace(
            offer_space=SimpleNamespace(
                document=SimpleNamespace(document_id=document_id)
            )
        ),
    )


class TestAttachment:
    def test_takes_over_violation_handling(self, runtime):
        assert runtime.adaptation_enabled
        controller = StormController(runtime, seed=1)
        # The sweep must stop adapting per-session and hand victims
        # here instead.
        assert not runtime.adaptation_enabled
        assert runtime.on_violation == controller.on_violation


class TestWaveBuffering:
    def test_burst_schedules_one_wave(self, runtime, loop):
        controller = StormController(runtime, seed=1)
        for i in range(5):
            controller.on_violation(
                SimpleNamespace(session_id=f"session-{i}")
            )
        # One wave event for the whole burst, not one per violation.
        assert len(controller._pending) == 5
        assert controller._wave_scheduled
        loop.run()
        assert not controller._wave_scheduled
        assert controller._pending == {}

    def test_wave_skips_vanished_sessions(self, runtime, loop):
        controller = StormController(runtime, seed=1)
        controller.on_violation(SimpleNamespace(session_id="ghost"))
        loop.run()
        # Nothing to process: the session never existed in the runtime.
        assert controller.stats.waves == 0
        assert controller.stats.sessions_processed == 0

    def test_duplicate_violations_collapse(self, runtime, loop):
        controller = StormController(runtime, seed=1)
        for _ in range(3):
            controller.on_violation(SimpleNamespace(session_id="same"))
        assert len(controller._pending) == 1


class TestClassBatching:
    def test_groups_by_document_and_offer(self):
        sessions = [
            stub_session("s3", "doc.a", "offer-1"),
            stub_session("s1", "doc.a", "offer-1"),
            stub_session("s2", "doc.a", "offer-2"),
            stub_session("s4", "doc.b", "offer-1"),
        ]
        batches = StormController._batch_by_class(sessions)
        assert set(batches) == {
            ("doc.a", "offer-1"), ("doc.a", "offer-2"),
            ("doc.b", "offer-1"),
        }
        # Members are ordered by session id so waves replay identically.
        assert [
            s.session_id for s in batches[("doc.a", "offer-1")]
        ] == ["s1", "s3"]

    def test_missing_offer_space_still_batches(self):
        session = stub_session("s1", "doc.a", "offer-1")
        session.result.offer_space = None
        batches = StormController._batch_by_class([session])
        assert set(batches) == {("?", "offer-1")}


def stub_candidate(offer_id, servers=()):
    return SimpleNamespace(
        offer=SimpleNamespace(
            offer_id=offer_id,
            servers_used=lambda servers=frozenset(servers): servers,
        )
    )


class TestClassCandidates:
    """The fast-path candidate list of one capability class."""

    def test_degraded_servers_sort_behind_healthy(self, runtime, manager):
        controller = StormController(runtime, seed=1)
        degraded_id = next(iter(manager.committer.servers))
        manager.committer.servers[degraded_id].set_degradation(0.5)
        session = stub_session("s1", "doc.a", "offer-0")
        tainted = stub_candidate("offer-1", servers={degraded_id})
        healthy = stub_candidate("offer-2")
        current = stub_candidate("offer-0")
        session.result.ensure_classified = lambda: [current, tainted, healthy]
        picked = controller._class_candidates(session)
        # The current offer is never its own alternate.
        assert [c.offer.offer_id for c in picked] == ["offer-2", "offer-1"]
