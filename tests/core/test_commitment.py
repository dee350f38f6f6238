"""Resource commitment and user confirmation (§4 steps 5–6)."""

from dataclasses import replace

import pytest

from repro.cmfs.server import StreamReservation
from repro.core.classification import classify_space
from repro.core.commitment import (
    Commitment,
    CommitmentState,
    ResourceCommitter,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.util.errors import ConfirmationTimeout, ReservationError


@pytest.fixture
def space(document, client):
    return build_offer_space(document, client, default_cost_model())


@pytest.fixture
def committer(transport, servers):
    return ResourceCommitter(transport, servers)


@pytest.fixture
def best_offer(space, balanced_profile):
    ranked = classify_space(space, balanced_profile, default_importance())
    return ranked[0].offer


class TestTryCommit:
    def test_success_reserves_everything(
        self, committer, best_offer, space, client, transport, servers
    ):
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        assert bundle is not None
        assert len(bundle.streams) == len(best_offer.variants)
        assert len(bundle.flows) == len(best_offer.variants)
        assert transport.flow_count == len(best_offer.variants)
        assert sum(s.stream_count for s in servers.values()) == len(
            best_offer.variants
        )

    def test_release_returns_everything(
        self, committer, best_offer, space, client, transport, servers
    ):
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        committer.release(bundle)
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0

    def test_failure_rolls_back(
        self, committer, best_offer, space, client, transport, topology, servers
    ):
        # Choke the client access link so the *last* flow reservation
        # fails after earlier resources were taken.
        topology.link("L-client").set_congestion(0.999)
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        assert bundle is None
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0
        assert topology.total_reserved_bps() == 0.0

    def test_unknown_server(self, committer):
        with pytest.raises(ReservationError):
            committer.server("server-zz")

    def test_failure_leaves_prior_reservations_untouched(
        self, committer, best_offer, space, client, transport, topology, servers
    ):
        # An unrelated session already holds resources; a commitment that
        # fails mid-way (flow reservation after stream admission) must
        # restore the fleet and transport to exactly that prior state.
        earlier = committer.try_commit(
            best_offer, space, client.access_point, holder="earlier"
        )
        assert earlier is not None
        before_streams = {
            server_id: server.reservations()
            for server_id, server in servers.items()
        }
        before_flows = transport.flow_count
        before_bps = topology.total_reserved_bps()

        topology.link("L-client").set_congestion(0.999)
        assert committer.try_commit(
            best_offer, space, client.access_point, holder="late"
        ) is None
        assert {
            server_id: server.reservations()
            for server_id, server in servers.items()
        } == before_streams
        assert transport.flow_count == before_flows
        assert topology.total_reserved_bps() == before_bps


class TestRollback:
    def _ghost_stream(self):
        return StreamReservation(
            stream_id="server-ghost/stream-1",
            server_id="server-ghost",
            variant_id="v1",
            rate_bps=1e6,
            holder="s1",
            sequence=1,
        )

    def test_unknown_server_does_not_abort_rollback(
        self, committer, best_offer, space, client, transport, servers
    ):
        # A stream from a server since removed from the fleet must be
        # skipped, not raise — else every reservation after it leaks.
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        haunted = replace(
            bundle, streams=(self._ghost_stream(), *bundle.streams)
        )
        committer.release(haunted)  # no raise
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0

    def test_double_release_is_tolerated(
        self, committer, best_offer, space, client, transport, servers
    ):
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        committer.release(bundle)
        committer.release(bundle)  # everything already gone: no raise
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0


class TestCommitment:
    def _commitment(self, committer, best_offer, space, client, period=60.0):
        bundle = committer.try_commit(
            best_offer, space, client.access_point, holder="s1"
        )
        return Commitment(
            bundle, committer, reserved_at=0.0, choice_period_s=period
        )

    def test_confirm_within_period(self, committer, best_offer, space, client):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.confirm(now=30.0)
        assert commitment.state is CommitmentState.CONFIRMED

    def test_confirm_after_deadline_raises_and_releases(
        self, committer, best_offer, space, client, transport
    ):
        commitment = self._commitment(committer, best_offer, space, client)
        with pytest.raises(ConfirmationTimeout):
            commitment.confirm(now=61.0)
        assert commitment.state is CommitmentState.EXPIRED
        assert transport.flow_count == 0

    def test_reject_releases(self, committer, best_offer, space, client, transport):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.reject(now=10.0)
        assert commitment.state is CommitmentState.REJECTED
        assert transport.flow_count == 0

    def test_expire_check(self, committer, best_offer, space, client, transport):
        commitment = self._commitment(committer, best_offer, space, client)
        assert not commitment.expire_check(now=59.9)
        assert commitment.expire_check(now=60.1)
        assert transport.flow_count == 0

    def test_double_confirm_rejected(self, committer, best_offer, space, client):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.confirm(now=1.0)
        with pytest.raises(ReservationError):
            commitment.confirm(now=2.0)

    def test_release_after_confirm(self, committer, best_offer, space, client, transport):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.confirm(now=1.0)
        commitment.release()
        assert commitment.state is CommitmentState.RELEASED
        assert transport.flow_count == 0

    def test_release_idempotent(self, committer, best_offer, space, client):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.confirm(now=1.0)
        commitment.release()
        commitment.release()  # no raise

    def test_reject_after_expiry_is_noop(self, committer, best_offer, space, client):
        commitment = self._commitment(committer, best_offer, space, client)
        assert commitment.expire_check(now=100.0)
        commitment.reject(now=101.0)  # no raise
        assert commitment.state is CommitmentState.EXPIRED

    def test_deadline(self, committer, best_offer, space, client):
        commitment = self._commitment(
            committer, best_offer, space, client, period=42.0
        )
        assert commitment.deadline == 42.0

    def test_release_after_expiry_is_safe(
        self, committer, best_offer, space, client, transport
    ):
        # The choicePeriod timer fired first; a late explicit teardown
        # must neither raise nor release the bundle a second time.
        commitment = self._commitment(committer, best_offer, space, client)
        assert commitment.expire_check(now=100.0)
        commitment.release()  # no raise
        assert commitment.state is CommitmentState.EXPIRED
        assert transport.flow_count == 0

    def test_expiry_after_release_does_not_double_release(
        self, committer, best_offer, space, client, transport, servers
    ):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.confirm(now=1.0)
        commitment.release()
        # Another session now takes the capacity; a stale expiry check on
        # the old commitment must not release anything again.
        other = committer.try_commit(
            best_offer, space, client.access_point, holder="s2"
        )
        assert other is not None
        assert not commitment.expire_check(now=500.0)
        assert transport.flow_count == len(other.flows)
        assert sum(s.stream_count for s in servers.values()) == len(
            other.streams
        )

    def test_reject_after_release_is_noop(
        self, committer, best_offer, space, client
    ):
        commitment = self._commitment(committer, best_offer, space, client)
        commitment.confirm(now=1.0)
        commitment.release()
        commitment.reject(now=2.0)  # no raise
        assert commitment.state is CommitmentState.RELEASED
