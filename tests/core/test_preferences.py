"""Server preference and security extensions (paper §8 conclusion)."""

from dataclasses import replace

import pytest

from repro.core.classification import (
    ClassificationPolicy,
    classify_offers,
    classify_space,
)
from repro.core.importance import default_importance
from repro.core.negotiation import QoSManager
from repro.core.preferences import (
    SecurityLevel,
    ServerAttributes,
    ServerDirectory,
    UserPreferences,
)
from repro.core.status import NegotiationStatus
from repro.core.stream import stream_classified
from repro.documents.media import ColorMode
from repro.paperdata import section_5_offers
from repro.util.errors import NegotiationError, ProfileError
from tests.properties.strategies import grid_profile, grid_space, weighted


class TestSecurityLevel:
    def test_ordering(self):
        assert SecurityLevel.PUBLIC < SecurityLevel.PROTECTED < SecurityLevel.CONFIDENTIAL

    def test_parse(self):
        assert SecurityLevel.parse("protected") is SecurityLevel.PROTECTED
        assert SecurityLevel.parse(2) is SecurityLevel.CONFIDENTIAL
        with pytest.raises(ProfileError):
            SecurityLevel.parse("ultra")


class TestServerDirectory:
    def test_unknown_servers_default_public(self):
        directory = ServerDirectory()
        assert directory.security_of("anything") is SecurityLevel.PUBLIC

    def test_register_and_lookup(self):
        directory = ServerDirectory(
            {"server-a": ServerAttributes(security=SecurityLevel.CONFIDENTIAL)}
        )
        assert directory.security_of("server-a") is SecurityLevel.CONFIDENTIAL
        assert "server-a" in directory


class TestUserPreferences:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        # A weight is a term of the OIF: a NaN one would reach the
        # stream's heap key, on which the offer order is undefined.
        with pytest.raises(ProfileError, match="finite"):
            UserPreferences(server_preference={"server-a": 1.0, "server-b": bad})

    def test_weights_are_read_only(self):
        prefs = UserPreferences(server_preference={"server-a": 1.0})
        with pytest.raises(TypeError, match="read-only"):
            prefs.server_preference["server-a"] = 2.0
        with pytest.raises(TypeError, match="read-only"):
            prefs.server_preference.update({"server-b": 2.0})
        assert prefs.server_preference == {"server-a": 1.0}
        assert repr(prefs) == (
            "UserPreferences(server_preference={'server-a': 1.0}, "
            "min_security=<SecurityLevel.PUBLIC: 0>)"
        )

    def test_weights_key(self):
        """Content, in server order, with ``-0.0`` apart from ``0.0``;
        no weights key like no preferences."""
        assert UserPreferences().weights_key is None
        assert UserPreferences(
            server_preference={"b": 1.0, "a": 0.5}
        ).weights_key == UserPreferences(
            server_preference={"a": 0.5, "b": 1}
        ).weights_key
        assert UserPreferences(
            server_preference={"a": -0.0}
        ).weights_key != UserPreferences(
            server_preference={"a": 0.0}
        ).weights_key

    def test_variant_filter(self):
        directory = ServerDirectory(
            {"server-a": ServerAttributes(security=SecurityLevel.PROTECTED)}
        )
        prefs = UserPreferences(min_security=SecurityLevel.PROTECTED)
        admissible = prefs.variant_filter(directory)
        offers = section_5_offers()  # all variants on server-a
        variant = next(iter(offers[0].variants.values()))
        assert admissible(variant)
        public = ServerDirectory(
            {"server-a": ServerAttributes(security=SecurityLevel.PUBLIC)}
        )
        assert not prefs.variant_filter(public)(variant)

    def test_offer_bonus_sums_variants(self):
        prefs = UserPreferences(server_preference={"server-a": 2.5})
        offer = section_5_offers()[0]
        assert prefs.offer_bonus(offer) == 2.5


DESIRED = (ColorMode.COLOR, 25)
WORST = (ColorMode.COLOR, 15)
GREY = (ColorMode.GREY, 10)


def orders(space, profile, policy=ClassificationPolicy.SNS_PRIMARY):
    """The offer ids in the order of the stream and of both eager
    references."""
    importance = default_importance()
    return [
        [c.offer.offer_id for c in ranked]
        for ranked in (
            stream_classified(space, profile, importance, policy=policy),
            classify_space(space, profile, importance, policy=policy),
            classify_offers(
                space.materialize(), profile, importance, policy=policy
            ),
        )
    ]


class TestApplyOfferBonus:
    """Server weights are a per-variant term of the OIF: every ordering
    applies the offer's summed bonus, and SNS and affordability stay
    what the QoS and the cost say."""

    def test_zero_bonus_is_identity(self):
        # Variant v of the grid's one axis sits on server v mod 3.
        space = grid_space([[DESIRED, WORST, GREY, DESIRED]])
        profile = grid_profile(DESIRED, WORST, 10_000)
        zero = weighted(profile, {"server-a": 0.0, "server-c": 0.0})
        importance = default_importance()
        assert [
            (c.offer.offer_id, c.oif)
            for c in stream_classified(space, zero, importance)
        ] == [
            (c.offer.offer_id, c.oif)
            for c in classify_space(space, profile, importance)
        ]

    def test_bonus_reorders_within_sns_class(self):
        # Three replicas on servers a, b, c: an exact tie that
        # enumeration order breaks, until server-c carries a weight.
        space = grid_space([[DESIRED, DESIRED, DESIRED]])
        profile = grid_profile(DESIRED, WORST, 10_000)
        assert orders(space, profile)[0] == ["offer-1", "offer-2", "offer-3"]
        for order in orders(space, weighted(profile, {"server-c": 0.5})):
            assert order == ["offer-3", "offer-1", "offer-2"]

    def test_bonus_does_not_cross_sns_boundary(self):
        # The GREY variant on server-b is a CONSTRAINT: a huge weight
        # on server-b leads only where there are no SNS bands.
        space = grid_space([[DESIRED, GREY]])
        profile = weighted(
            grid_profile(DESIRED, WORST, 10_000), {"server-b": 10_000.0}
        )
        for order in orders(space, profile):
            assert order == ["offer-1", "offer-2"]
        for order in orders(space, profile, ClassificationPolicy.PURE_OIF):
            assert order == ["offer-2", "offer-1"]


class TestNegotiationIntegration:
    def test_preferred_server_wins_ties(
        self, database, transport, servers, clock, document, balanced_profile, client
    ):
        from repro.core.profile_manager import make_profile
        from repro.documents.media import ColorMode
        from repro.documents.quality import VideoQoS

        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock, directory=ServerDirectory(),
        )
        # A profile whose desired level both servers can meet (15 f/s is
        # enough), so DESIRABLE offers exist on server-a and server-b and
        # the preference bonus decides between them.
        base = make_profile(
            "pref",
            desired_video=VideoQoS(color=ColorMode.COLOR, frame_rate=15,
                                   resolution=720),
            worst_video=VideoQoS(color=ColorMode.GREY, frame_rate=10,
                                 resolution=360),
            max_cost=10.0,
        )
        prefs = UserPreferences(
            server_preference={"server-b": 50.0, "server-a": -50.0}
        )
        profile = replace(base, preferences=prefs)
        result = manager.negotiate(document.document_id, profile, client)
        assert result.succeeded
        video_variant = result.chosen.offer.variant_for(
            f"{document.document_id}.video"
        )
        assert video_variant.server_id == "server-b"
        # Without the preference the higher-quality server-a variant wins.
        result.commitment.release()
        plain = manager.negotiate(document.document_id, base, client)
        assert plain.chosen.offer.variant_for(
            f"{document.document_id}.video"
        ).server_id == "server-a"
        plain.commitment.release()

    def test_security_floor_filters_servers(
        self, database, transport, servers, clock, document, balanced_profile, client
    ):
        directory = ServerDirectory(
            {
                "server-a": ServerAttributes(security=SecurityLevel.CONFIDENTIAL),
                "server-b": ServerAttributes(security=SecurityLevel.PUBLIC),
            }
        )
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock, directory=directory,
        )
        prefs = UserPreferences(min_security=SecurityLevel.CONFIDENTIAL)
        profile = replace(balanced_profile, preferences=prefs)
        result = manager.negotiate(document.document_id, profile, client)
        assert result.status in (
            NegotiationStatus.SUCCEEDED, NegotiationStatus.FAILED_WITH_OFFER
        )
        assert result.chosen.offer.servers_used() == {"server-a"}
        result.commitment.release()

    def test_security_floor_can_empty_the_space(
        self, database, transport, servers, clock, document, balanced_profile, client
    ):
        directory = ServerDirectory()  # everything PUBLIC
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock, directory=directory,
        )
        prefs = UserPreferences(min_security=SecurityLevel.CONFIDENTIAL)
        profile = replace(balanced_profile, preferences=prefs)
        result = manager.negotiate(document.document_id, profile, client)
        assert result.status is NegotiationStatus.FAILED_WITHOUT_OFFER

    def test_invalid_preferences_rejected(
        self, manager, document, balanced_profile, client
    ):
        profile = replace(balanced_profile, preferences="nonsense")
        with pytest.raises(NegotiationError):
            manager.negotiate(document.document_id, profile, client)

    def test_no_directory_ignores_security(
        self, manager, document, balanced_profile, client
    ):
        prefs = UserPreferences(min_security=SecurityLevel.CONFIDENTIAL)
        profile = replace(balanced_profile, preferences=prefs)
        # Without a directory the manager cannot evaluate security; the
        # preference bonus still applies but no variant is filtered.
        result = manager.negotiate(document.document_id, profile, client)
        assert result.succeeded
        result.commitment.release()
