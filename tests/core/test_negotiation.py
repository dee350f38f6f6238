"""The six-step negotiation procedure (paper §4)."""

from dataclasses import replace

import pytest

from repro.client.decoder import Decoder, DecoderBank
from repro.client.machine import ClientMachine
from repro.core import ProfileManager, make_profile
from repro.core.negotiation import QoSManager
from repro.core.preferences import UserPreferences
from repro.core.status import NegotiationStatus, StaticNegotiationStatus
from repro.documents.media import Codecs, ColorMode, Medium
from repro.documents.quality import VideoQoS
from repro.sim import build_scenario
from repro.util.errors import NegotiationError


class TestStep1LocalNegotiation:
    def test_bw_screen_fails_with_local_offer(self, manager, document, balanced_profile):
        bw_client = ClientMachine(
            "bw", screen_color=ColorMode.BLACK_AND_WHITE,
            access_point="client-net",
        )
        result = manager.negotiate(document.document_id, balanced_profile, bw_client)
        assert result.status is NegotiationStatus.FAILED_WITH_LOCAL_OFFER
        assert Medium.VIDEO in result.local_violations
        assert result.user_offer is not None
        assert result.user_offer.video.color is ColorMode.BLACK_AND_WHITE
        assert result.commitment is None

    def test_local_offer_clamps_all_parameters(self, manager, document, balanced_profile):
        small_client = ClientMachine(
            "small", screen_width=360, max_frame_rate=10,
            access_point="client-net",
        )
        result = manager.negotiate(
            document.document_id, balanced_profile, small_client
        )
        assert result.status is NegotiationStatus.FAILED_WITH_LOCAL_OFFER
        assert result.user_offer.video.resolution == 360
        assert result.user_offer.video.frame_rate == 10


class TestStep2Compatibility:
    def test_no_decoder_fails_without_offer(self, manager, document, balanced_profile):
        bare = ClientMachine(
            "bare", decoders=DecoderBank((Decoder(Codecs.JPEG),)),
            access_point="client-net",
        )
        result = manager.negotiate(document.document_id, balanced_profile, bare)
        assert result.status is NegotiationStatus.FAILED_WITHOUT_OFFER
        assert result.user_offer is None


class TestStep5Commitment:
    def test_success_with_resources(self, manager, document, balanced_profile, client):
        result = manager.negotiate(document.document_id, balanced_profile, client)
        assert result.status is NegotiationStatus.SUCCEEDED
        assert result.chosen is not None and result.chosen.satisfies_user
        assert result.commitment is not None
        assert result.attempts == 1
        result.commitment.release()

    def test_best_offer_chosen_first(self, manager, document, balanced_profile, client):
        result = manager.negotiate(document.document_id, balanced_profile, client)
        satisfying = [c for c in result.classified if c.satisfies_user]
        assert result.chosen.offer.offer_id == satisfying[0].offer.offer_id
        result.commitment.release()

    def test_acceptable_fallback_still_succeeds(
        self, manager, document, balanced_profile, client, topology
    ):
        # Starve the network below the desired offer's peak rate: the
        # manager walks down the classified list and still SUCCEEDS with
        # a lesser offer inside the worst-acceptable bounds.
        topology.link("L-client").set_congestion(0.97)  # 3 Mbps left
        result = manager.negotiate(document.document_id, balanced_profile, client)
        assert result.status is NegotiationStatus.SUCCEEDED
        assert result.attempts > 1
        assert result.chosen.sns is StaticNegotiationStatus.ACCEPTABLE
        result.commitment.release()

    def test_degraded_offer_when_profile_strict(
        self, manager, document, premium_profile, client, topology
    ):
        # The premium profile's worst bound is colour/15 f/s: with only
        # ~3 Mbps left no colour variant fits, so the manager reserves a
        # CONSTRAINT offer and reports FAILEDWITHOFFER (§4 step 5).
        topology.link("L-client").set_congestion(0.97)
        result = manager.negotiate(document.document_id, premium_profile, client)
        assert result.status is NegotiationStatus.FAILED_WITH_OFFER
        assert not result.chosen.satisfies_user
        result.commitment.release()

    def test_try_later_when_nothing_fits(
        self, manager, document, balanced_profile, client, topology
    ):
        topology.link("L-client").set_congestion(1.0)
        result = manager.negotiate(document.document_id, balanced_profile, client)
        assert result.status is NegotiationStatus.FAILED_TRY_LATER
        assert result.commitment is None
        assert result.attempts == len(result.classified)

    def test_resources_clean_after_try_later(
        self, manager, document, balanced_profile, client, topology, transport, servers
    ):
        topology.link("L-client").set_congestion(1.0)
        manager.negotiate(document.document_id, balanced_profile, client)
        assert transport.flow_count == 0
        assert sum(s.stream_count for s in servers.values()) == 0


class TestDocumentLookup:
    def test_by_id(self, manager, document, balanced_profile, client):
        result = manager.negotiate(document.document_id, balanced_profile, client)
        assert result.succeeded
        result.commitment.release()

    def test_by_object(self, manager, document, balanced_profile, client):
        result = manager.negotiate(document, balanced_profile, client)
        assert result.succeeded
        result.commitment.release()

    def test_unknown_document(self, manager, balanced_profile, client):
        from repro.util.errors import NotFoundError

        with pytest.raises(NotFoundError):
            manager.negotiate("doc.ghost", balanced_profile, client)


class TestProfileInteraction:
    def test_strict_profile_yields_failed_with_offer(
        self, manager, document, client
    ):
        # Demands M-JPEG-grade super quality that no decodable variant
        # provides: the negotiation still returns the best system offer.
        greedy = make_profile(
            "greedy",
            desired_video=VideoQoS(color=ColorMode.SUPER_COLOR,
                                   frame_rate=60, resolution=1920),
            worst_video=VideoQoS(color=ColorMode.SUPER_COLOR,
                                 frame_rate=50, resolution=1920),
            max_cost=100.0,
        )
        # A client good enough to display the request, so step 1 passes
        # and the shortfall is the system's, not the terminal's.
        client = ClientMachine(
            "workstation", screen_width=1920, screen_height=1200,
            screen_color=ColorMode.SUPER_COLOR, max_frame_rate=60,
            access_point="client-net",
        )
        result = manager.negotiate(document.document_id, greedy, client)
        assert result.status is NegotiationStatus.FAILED_WITH_OFFER
        assert result.chosen.sns is StaticNegotiationStatus.CONSTRAINT
        assert result.user_offer is not None
        result.commitment.release()

    def test_invalid_importance_rejected(self, manager, document, client, balanced_profile):
        from dataclasses import replace

        broken = replace(balanced_profile, importance="not an importance")
        with pytest.raises(NegotiationError):
            manager.negotiate(document.document_id, broken, client)

    def test_default_importance_when_none(self, manager, document, client, balanced_profile):
        from dataclasses import replace

        bare = replace(balanced_profile, importance=None)
        result = manager.negotiate(document.document_id, bare, client)
        assert result.succeeded
        result.commitment.release()

    def test_requests_without_importance_share_one(
        self, manager, document, client, balanced_profile, monkeypatch
    ):
        """Every profile without importance scores with one read-only
        instance, not a fresh ``default_importance()`` per request."""
        from repro.core import negotiation

        seen = []
        inner = negotiation.stream_classified

        def recording(space, profile, importance, **kwargs):
            seen.append(importance)
            return inner(space, profile, importance, **kwargs)

        monkeypatch.setattr(negotiation, "stream_classified", recording)
        for name in ("bare-1", "bare-2"):
            bare = replace(balanced_profile, name=name, importance=None)
            result = manager.negotiate(document.document_id, bare, client)
            assert result.succeeded
            result.commitment.release()
        assert len(seen) == 2
        assert seen[0] is seen[1]
        assert seen[0] == negotiation.default_importance()


class TestResultSummary:
    def test_summary_mentions_status(self, manager, document, balanced_profile, client):
        result = manager.negotiate(document.document_id, balanced_profile, client)
        text = result.summary()
        assert "SUCCEEDED" in text
        assert "offers classified" in text
        result.commitment.release()


class TestMaxOffers:
    def test_max_offers_truncates_classified(self, manager, document,
                                             balanced_profile, client):
        result = manager.negotiate(
            document.document_id, balanced_profile, client, max_offers=3
        )
        assert len(result.ensure_classified()) == 3
        assert result.succeeded  # the best offers still lead the list
        result.commitment.release()

    @pytest.mark.parametrize(
        "preferences",
        [None, UserPreferences(server_preference={"server-a": 5.0})],
        ids=["plain", "server-preference"],
    )
    def test_cut_keeps_the_head_of_the_uncut_order(self, preferences):
        """The cut used to land before the preference re-rank: with
        this preference the uncut ranking starts offer-33, -34, -35 and
        the cut one started offer-33, -34, -49."""
        scenario = build_scenario()
        profile = replace(
            ProfileManager().get("economy"), preferences=preferences
        )

        def ranking(max_offers):
            plan = scenario.manager.plan(
                "doc.news-1", profile, scenario.any_client(),
                max_offers=max_offers,
            )
            return [c.offer.offer_id for c in plan.offers]

        assert ranking(3) == ranking(None)[:3]

    def test_renegotiate_releases_previous(self, manager, document,
                                           balanced_profile, premium_profile,
                                           client, transport):
        first = manager.negotiate(document.document_id, premium_profile, client)
        held = transport.flow_count
        assert held > 0
        second = manager.renegotiate(
            first, document.document_id, balanced_profile, client
        )
        assert second.succeeded
        # Only the new commitment's flows remain.
        assert transport.flow_count == len(second.commitment.bundle.flows)
        second.commitment.release()

    def test_renegotiate_after_expiry(self, manager, clock, document,
                                      balanced_profile, client):
        first = manager.negotiate(document.document_id, balanced_profile, client)
        clock.advance(first.commitment.choice_period_s + 1)
        assert first.commitment.expire_check(clock.now())
        second = manager.renegotiate(
            first, document.document_id, balanced_profile, client
        )
        assert second.succeeded
        second.commitment.release()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_offers_non_positive_rejected(self, manager, document,
                                              balanced_profile, client, bad):
        # Regression: max_offers=0 used to fall through to classify's
        # top_k clamp and return the full ranking instead of failing.
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="max_offers"):
            manager.negotiate(
                document.document_id, balanced_profile, client,
                max_offers=bad,
            )


class _FailingJournal:
    """Journal stub whose append always dies mid-write."""

    def append(self, *args, **kwargs):
        from repro.util.errors import JournalError

        raise JournalError("disk full")


class TestRenegotiateErrorPropagation:
    """Regression: renegotiate used to swallow *every* NegotiationError
    from the previous commitment's reject(), hiding journal faults and
    state violations behind a silent pass."""

    def test_journal_failure_propagates(self, manager, document,
                                        balanced_profile, client):
        from repro.util.errors import JournalError

        first = manager.negotiate(document.document_id, balanced_profile, client)
        assert first.succeeded
        manager.committer.journal = _FailingJournal()
        with pytest.raises(JournalError):
            manager.renegotiate(
                first, document.document_id, balanced_profile, client
            )

    def test_confirmed_commitment_rejected_loudly(self, manager, clock,
                                                  document, balanced_profile,
                                                  client):
        from repro.util.errors import ReservationError

        first = manager.negotiate(document.document_id, balanced_profile, client)
        first.commitment.confirm(clock.now())
        with pytest.raises(ReservationError):
            manager.renegotiate(
                first, document.document_id, balanced_profile, client
            )
        first.commitment.release()

    def test_already_rejected_is_harmless(self, manager, clock, document,
                                          balanced_profile, client):
        first = manager.negotiate(document.document_id, balanced_profile, client)
        first.commitment.reject(clock.now())
        second = manager.renegotiate(
            first, document.document_id, balanced_profile, client
        )
        assert second.succeeded
        second.commitment.release()
