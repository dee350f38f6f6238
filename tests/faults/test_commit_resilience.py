"""Resilient commitment: retries, breaker-aware walks, leases."""

import pytest

from repro.core import QoSManager
from repro.core.classification import classify_space
from repro.core.commitment import ResourceCommitter
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.negotiation import DEFAULT_RETRY_AFTER_S
from repro.core.status import NegotiationStatus
from repro.documents import make_news_article
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.metadata import MetadataDatabase


@pytest.fixture
def space(document, client):
    return build_offer_space(document, client, default_cost_model())


@pytest.fixture
def best_offer(space, balanced_profile):
    ranked = classify_space(space, balanced_profile, default_importance())
    return ranked[0].offer


def install_injector(plan, servers, transport, clock, **kwargs):
    injector = FaultInjector(plan, clock=clock, **kwargs)
    injector.install(servers, transport)
    return injector


class TestRetryAwareCommit:
    def test_survives_transient_refusals(
        self, transport, servers, clock, best_offer, space, client
    ):
        plan = FaultPlan(
            (FaultSpec(FaultKind.TRANSIENT_REFUSAL, "*", value=2),)
        )
        install_injector(plan, servers, transport, clock)
        committer = ResourceCommitter(
            transport, servers, clock=clock,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        assert bundle is not None
        assert committer.stats.retries == 2

    def test_without_retry_policy_the_fault_fails_the_offer(
        self, transport, servers, clock, best_offer, space, client
    ):
        plan = FaultPlan(
            (FaultSpec(FaultKind.TRANSIENT_REFUSAL, "*", value=2),)
        )
        install_injector(plan, servers, transport, clock)
        committer = ResourceCommitter(transport, servers, clock=clock)
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        assert bundle is None
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0

    def test_attempt_outcomes_feed_the_breaker(
        self, transport, servers, clock, best_offer, space, client
    ):
        servers["server-a"].crash()
        health = CircuitBreaker()
        committer = ResourceCommitter(
            transport, servers, clock=clock,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
            health=health,
        )
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        assert bundle is None
        assert not health.allow("server-a", clock.now())


class TestBreakerAwareWalk:
    @pytest.fixture
    def av_database(self):
        # Audio replicated on both machines and no single-server stills,
        # so complete alternate-server offers exist when one machine dies.
        db = MetadataDatabase()
        db.insert_document(
            make_news_article(
                "doc.av",
                audio_servers=("server-a", "server-b"),
                include_image=False,
                include_text=False,
            )
        )
        return db

    def _manager(self, av_database, transport, servers, clock, health):
        return QoSManager(
            database=av_database, transport=transport, servers=servers,
            clock=clock,
            retry_policy=RetryPolicy(max_attempts=2, jitter=0.0),
            health=health,
        )

    def test_degrades_to_alternate_server_offers(
        self, av_database, transport, servers, clock, client, balanced_profile
    ):
        health = CircuitBreaker()
        manager = self._manager(av_database, transport, servers, clock, health)
        servers["server-a"].crash()
        result = manager.negotiate("doc.av", balanced_profile, client)
        assert result.status in (
            NegotiationStatus.SUCCEEDED, NegotiationStatus.FAILED_WITH_OFFER
        )
        assert result.chosen.offer.servers_used() == frozenset({"server-b"})
        assert manager.committer.stats.breaker_skips > 0
        result.commitment.release()

    def test_try_later_carries_breaker_reopen_hint(
        self, database, transport, servers, clock, client, balanced_profile
    ):
        # The canonical article keeps audio and stills on server-a only,
        # so with server-a dead no offer can commit at all.
        health = CircuitBreaker()
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock,
            retry_policy=RetryPolicy(max_attempts=2, jitter=0.0),
            health=health,
        )
        servers["server-a"].crash()
        result = manager.negotiate("doc.test", balanced_profile, client)
        assert result.status is NegotiationStatus.FAILED_TRY_LATER
        assert result.retry_after_s == pytest.approx(30.0)

    def test_try_later_hint_defaults_without_open_breaker(
        self, database, transport, servers, clock, client, balanced_profile
    ):
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock,
        )
        servers["server-a"].crash()
        result = manager.negotiate("doc.test", balanced_profile, client)
        assert result.status is NegotiationStatus.FAILED_TRY_LATER
        assert result.retry_after_s == DEFAULT_RETRY_AFTER_S


class TestLeases:
    def test_lost_release_recovered_by_reaper(
        self, transport, servers, clock, best_offer, space, client
    ):
        plan = FaultPlan(
            (FaultSpec(FaultKind.LOST_RELEASE, "*", duration_s=60.0),)
        )
        install_injector(plan, servers, transport, clock)
        committer = ResourceCommitter(
            transport, servers, clock=clock, lease_ttl_s=100.0
        )
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        committer.release(bundle)
        # The releases were swallowed: streams leaked, lease is a zombie.
        assert sum(s.stream_count for s in servers.values()) > 0
        assert committer.leases.get("s1").zombie
        # Inside the fault window the reaper's rollback is swallowed too.
        committer.reap_expired(clock.now())
        assert "s1" in committer.leases
        # Once the window closes the reaper recovers everything.
        clock.advance_to(61.0)
        assert committer.reap_expired(clock.now()) == 1
        assert sum(s.stream_count for s in servers.values()) == 0
        assert transport.flow_count == 0
        assert committer.stats.leases_reaped == 1

    def test_unrenewed_lease_expires_and_is_reaped(
        self, transport, servers, clock, best_offer, space, client
    ):
        committer = ResourceCommitter(
            transport, servers, clock=clock, lease_ttl_s=100.0
        )
        committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        clock.advance_to(150.0)
        assert committer.reap_expired() == 1
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0

    def test_renewal_keeps_the_lease_alive(
        self, transport, servers, clock, best_offer, space, client
    ):
        committer = ResourceCommitter(
            transport, servers, clock=clock, lease_ttl_s=100.0
        )
        committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        clock.advance_to(90.0)
        assert committer.renew_lease("s1")
        clock.advance_to(150.0)
        assert committer.reap_expired() == 0
        assert transport.flow_count > 0

    def test_clean_release_drops_the_lease(
        self, transport, servers, clock, best_offer, space, client
    ):
        committer = ResourceCommitter(
            transport, servers, clock=clock, lease_ttl_s=100.0
        )
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        committer.release(bundle)
        assert "s1" not in committer.leases
        assert committer.renew_lease("s1") is False
