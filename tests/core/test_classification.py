"""Classification beyond the paper examples: policies, vectorized path."""

import pytest

from repro.client.machine import ClientMachine
from repro.core.classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    classify_offer,
    classify_offers,
    classify_space,
    compute_sns,
    walk_order,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.profiles import MMProfile, UserProfile
from repro.core.status import StaticNegotiationStatus
from repro.documents.builder import make_news_article
from repro.documents.media import ColorMode
from repro.documents.quality import VideoQoS
from repro.paperdata import section_5_offers, section_521_profile
from repro.util.units import dollars

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)
LOW = VideoQoS(color=ColorMode.GREY, frame_rate=10, resolution=360)


def loose_profile(max_cost=100.0):
    return UserProfile(
        name="loose",
        desired=MMProfile(video=TV, cost=dollars(max_cost)),
        worst=MMProfile(video=LOW, cost=dollars(max_cost)),
        importance=default_importance(),
    )


class TestComputeSns:
    def test_desirable_needs_qos_and_cost(self):
        offers = {o.offer_id: o for o in section_5_offers()}
        profile = loose_profile(max_cost=10.0)
        # offer4 = exactly TV quality, 5 $ <= 10 $ -> DESIRABLE now.
        assert (
            compute_sns(offers["offer4"], profile)
            is StaticNegotiationStatus.DESIRABLE
        )

    def test_acceptable_between_bounds(self):
        offers = {o.offer_id: o for o in section_5_offers()}
        # offer3 (grey, 25 f/s) beats the LOW worst bound but not TV.
        assert (
            compute_sns(offers["offer3"], loose_profile())
            is StaticNegotiationStatus.ACCEPTABLE
        )

    def test_constraint_below_worst(self):
        offers = {o.offer_id: o for o in section_5_offers()}
        strict = section_521_profile()
        assert (
            compute_sns(offers["offer1"], strict)
            is StaticNegotiationStatus.CONSTRAINT
        )


class TestClassifiedOffer:
    def test_satisfies_user_combines_sns_and_cost(self):
        offers = {o.offer_id: o for o in section_5_offers()}
        profile = section_521_profile()
        classified = classify_offer(
            offers["offer4"], profile, default_importance()
        )
        # ACCEPTABLE QoS but 5 $ > 4 $: does not satisfy the user.
        assert classified.sns.satisfies_user
        assert not classified.affordable
        assert not classified.satisfies_user


class TestPolicies:
    def test_sns_primary_groups_by_status(self):
        profile = loose_profile(max_cost=4.0)
        ranked = classify_offers(
            section_5_offers(), profile, default_importance()
        )
        statuses = [int(c.sns) for c in ranked]
        assert statuses == sorted(statuses)

    def test_pure_oif_sorts_by_oif_only(self):
        profile = loose_profile()
        ranked = classify_offers(
            section_5_offers(), profile, default_importance(),
            policy=ClassificationPolicy.PURE_OIF,
        )
        oifs = [c.oif for c in ranked]
        assert oifs == sorted(oifs, reverse=True)

    def test_cost_gated_demotes_unaffordable(self):
        profile = loose_profile(max_cost=2.99)  # nothing but offer1 affordable
        ranked = classify_offers(
            section_5_offers(), profile, default_importance(),
            policy=ClassificationPolicy.COST_GATED,
        )
        for classified in ranked:
            if not classified.affordable:
                assert classified.sns is StaticNegotiationStatus.CONSTRAINT

    def test_stable_tie_break_by_enumeration(self):
        offers = section_5_offers()
        profile = loose_profile()
        zero = default_importance().with_cost_per_dollar(0.0)
        # Force total ties by zeroing all importance sources.
        from repro.core.importance import ImportanceProfile, ScaleImportance
        from repro.documents.media import AudioGrade, Language

        flat = ImportanceProfile(
            color={mode: 0.0 for mode in ColorMode},
            frame_rate=ScaleImportance(anchors={1.0: 0.0, 60.0: 0.0}),
            resolution=ScaleImportance(anchors={10.0: 0.0, 1920.0: 0.0}),
            audio_grade={g: 0.0 for g in AudioGrade},
            language={Language.NONE: 0.0},
            media_weight={},
            cost_per_dollar=0.0,
        )
        ranked = classify_offers(
            offers, profile, flat, policy=ClassificationPolicy.PURE_OIF
        )
        assert [c.offer.offer_id for c in ranked] == [
            "offer1", "offer2", "offer3", "offer4",
        ]


class TestWalkOrder:
    """§5.2.2(c): user-satisfying offers first, then the rest."""

    @staticmethod
    def ranked(*specs):
        return [
            ClassifiedOffer(
                offer=name, sns=StaticNegotiationStatus(level), oif=0.0,
                affordable=affordable,
            )
            for name, level, affordable in specs
        ]

    def test_banded_walk_defers_only_up_to_the_first_constraint(self):
        offers = self.ranked(
            ("a", 0, True), ("b", 1, False), ("c", 1, True),
            ("d", 2, True), ("e", 2, True),
        )
        source, pulled = iter(offers), []
        walk = walk_order(source, ClassificationPolicy.SNS_PRIMARY, pulled)
        assert next(walk).offer == "a"
        assert [c.offer for c in pulled] == ["a"]
        assert next(walk).offer == "c"  # "b" is unaffordable: held back
        assert [c.offer for c in pulled] == ["a", "b", "c"]
        assert next(walk).offer == "b"  # "d" proved nothing better follows
        assert [c.offer for c in pulled] == ["a", "b", "c", "d"]
        # A caller that stops here continues from the iterator it passed.
        assert pulled + list(source) == offers

    @pytest.mark.parametrize(
        "policy", [ClassificationPolicy.PURE_OIF, None]
    )
    def test_unbanded_walk_defers_until_the_input_is_drained(self, policy):
        # Not in SNS order (PURE_OIF, or a caller's hand-picked subset):
        # a satisfying offer may follow a CONSTRAINT one.
        offers = self.ranked(("x", 2, True), ("y", 0, True), ("z", 1, False))
        assert [c.offer for c in walk_order(offers, policy)] == [
            "y", "x", "z",
        ]
        banded = walk_order(offers, ClassificationPolicy.SNS_PRIMARY)
        assert [c.offer for c in banded] == ["x", "y", "z"]


class TestVectorizedAgreement:
    @pytest.mark.parametrize("policy", list(ClassificationPolicy))
    def test_matches_scalar_on_real_space(self, policy, balanced_profile):
        document = make_news_article("doc.vec")
        client = ClientMachine("c1")
        space = build_offer_space(document, client, default_cost_model())
        importance = default_importance()

        vectorized = classify_space(
            space, balanced_profile, importance, policy=policy
        )
        scalar = classify_offers(
            space.materialize(), balanced_profile, importance, policy=policy
        )
        assert len(vectorized) == len(scalar) == space.offer_count
        for v, s in zip(vectorized, scalar):
            assert v.offer.variant_ids == s.offer.variant_ids
            assert v.sns == s.sns
            assert v.oif == pytest.approx(s.oif)
            assert v.affordable == s.affordable

    def test_top_k_prefix(self, balanced_profile):
        document = make_news_article("doc.topk")
        client = ClientMachine("c1")
        space = build_offer_space(document, client, default_cost_model())
        importance = default_importance()
        full = classify_space(space, balanced_profile, importance)
        top = classify_space(space, balanced_profile, importance, top_k=5)
        assert [c.offer.variant_ids for c in top] == [
            c.offer.variant_ids for c in full[:5]
        ]

    def test_empty_space(self, balanced_profile):
        from repro.client.decoder import DecoderBank

        document = make_news_article("doc.empty")
        client = ClientMachine("bare", decoders=DecoderBank(()))
        space = build_offer_space(document, client, default_cost_model())
        assert classify_space(space, balanced_profile, default_importance()) == []


class TestTopKValidation:
    """Regression: ``top_k=0`` used to clamp to "no truncation" and
    silently return the full ranking instead of rejecting the value."""

    @pytest.fixture
    def space(self):
        document = make_news_article("doc.topk0")
        return build_offer_space(
            document, ClientMachine("c1"), default_cost_model()
        )

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_classify_space_rejects_non_positive(
        self, space, balanced_profile, bad
    ):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="top_k"):
            classify_space(
                space, balanced_profile, default_importance(), top_k=bad
            )

    def test_none_still_means_unbounded(self, space, balanced_profile):
        full = classify_space(
            space, balanced_profile, default_importance(), top_k=None
        )
        assert len(full) == space.offer_count

    def test_one_is_the_smallest_valid_bound(self, space, balanced_profile):
        top = classify_space(
            space, balanced_profile, default_importance(), top_k=1
        )
        assert len(top) == 1


class TestVectorCeiling:
    def test_oversized_space_rejected(self, balanced_profile, monkeypatch):
        import repro.core.classification as mod

        document = make_news_article("doc.huge")
        client = ClientMachine("c1")
        space = build_offer_space(document, client, default_cost_model())
        monkeypatch.setattr(mod, "MAX_VECTOR_OFFERS", 10)
        from repro.util.errors import OfferError

        with pytest.raises(OfferError, match="ceiling"):
            mod.classify_space(space, balanced_profile, default_importance())
