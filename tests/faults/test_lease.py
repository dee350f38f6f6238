"""Reservation leases: grant, renew, expire, zombies, reaping."""

import pytest

from repro.faults import LeaseManager
from repro.util.errors import LeaseError


@pytest.fixture
def manager():
    return LeaseManager(ttl_s=100.0)


BUNDLE = object()  # the manager never looks inside the bundle


class TestGrant:
    def test_grant_and_lookup(self, manager):
        lease = manager.grant("s1", BUNDLE, now=0.0)
        assert lease.expires_at == 100.0
        assert "s1" in manager
        assert manager.get("s1") is lease
        assert len(manager) == 1

    def test_double_grant_rejected(self, manager):
        manager.grant("s1", BUNDLE, now=0.0)
        with pytest.raises(LeaseError):
            manager.grant("s1", BUNDLE, now=1.0)

    def test_ttl_must_be_positive(self):
        with pytest.raises(Exception):
            LeaseManager(ttl_s=0.0)


class TestRenewal:
    def test_renew_pushes_expiry(self, manager):
        lease = manager.grant("s1", BUNDLE, now=0.0)
        manager.renew("s1", now=50.0)
        assert lease.expires_at == 150.0

    def test_renew_unknown_holder_raises(self, manager):
        with pytest.raises(LeaseError):
            manager.renew("ghost", now=0.0)

    def test_renew_if_held(self, manager):
        manager.grant("s1", BUNDLE, now=0.0)
        assert manager.renew_if_held("s1", now=10.0)
        assert not manager.renew_if_held("ghost", now=10.0)


class TestExpiry:
    def test_expired_lease_is_due(self, manager):
        lease = manager.grant("s1", BUNDLE, now=0.0)
        assert manager.due(now=99.0) == ()
        assert manager.due(now=100.0) == (lease,)

    def test_renewed_lease_is_not_due(self, manager):
        manager.grant("s1", BUNDLE, now=0.0)
        manager.renew("s1", now=90.0)
        assert manager.due(now=150.0) == ()

    def test_zombie_is_due_before_expiry(self, manager):
        lease = manager.grant("s1", BUNDLE, now=0.0)
        manager.mark_zombie("s1")
        assert lease.zombie
        assert manager.due(now=1.0) == (lease,)

    def test_mark_zombie_on_unknown_holder_is_noop(self, manager):
        manager.mark_zombie("ghost")  # no raise


class TestCollection:
    def test_collect_removes_and_counts(self, manager):
        lease = manager.grant("s1", BUNDLE, now=0.0)
        manager.collect(lease)
        assert "s1" not in manager
        assert manager.reaped == 1

    def test_collect_twice_counts_once(self, manager):
        lease = manager.grant("s1", BUNDLE, now=0.0)
        manager.collect(lease)
        manager.collect(lease)
        assert manager.reaped == 1

    def test_drop_after_clean_release(self, manager):
        manager.grant("s1", BUNDLE, now=0.0)
        assert manager.drop("s1") is not None
        assert manager.drop("s1") is None  # idempotent
        assert manager.reaped == 0  # a clean release is not a reap
