"""Offer-space enumeration (§4 steps 2–3)."""

from dataclasses import replace

import pytest

from repro.client.decoder import Decoder, DecoderBank
from repro.client.machine import ClientMachine
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.documents.builder import (
    DocumentBuilder,
    MonomediaBuilder,
    make_news_article,
)
from repro.documents.media import Codecs, ColorMode, Medium, TV_RESOLUTION
from repro.documents.quality import VideoQoS
from repro.util.errors import OfferError


@pytest.fixture
def document():
    return make_news_article("doc.enum")


@pytest.fixture
def client():
    return ClientMachine("c1")


@pytest.fixture
def space(document, client):
    return build_offer_space(document, client, default_cost_model())


class TestCompatibilityFiltering:
    def test_mjpeg_variants_dropped(self, space, document):
        # The standard decoder bank has no M-JPEG decoder (§4 step 2's
        # own example); half the video variants disappear.
        sizes = space.axis_sizes()
        assert sizes[f"{document.document_id}.video"] == 4
        rejected = space.rejected[f"{document.document_id}.video"]
        assert all(v.codec is Codecs.MJPEG for v in rejected)

    def test_undecodable_everything_empties_axis(self, document):
        client = ClientMachine(
            "bare", decoders=DecoderBank((Decoder(Codecs.JPEG),))
        )
        space = build_offer_space(document, client, default_cost_model())
        assert space.is_empty
        assert f"{document.document_id}.video" in space.empty_axes

    def test_offer_count_is_axis_product(self, space):
        sizes = space.axis_sizes()
        expected = 1
        for size in sizes.values():
            expected *= size
        assert space.offer_count == expected == 4 * 4 * 2 * 2


class TestMaterialisation:
    def test_iter_matches_count(self, space):
        offers = list(space.iter_offers())
        assert len(offers) == space.offer_count

    def test_ids_are_enumeration_indices(self, space):
        offers = space.materialize(max_offers=3)
        assert [o.offer_id for o in offers] == ["offer-1", "offer-2", "offer-3"]

    def test_offer_at_matches_iteration(self, space):
        offers = list(space.iter_offers())
        for index in (0, 1, 7, space.offer_count - 1):
            direct = space.offer_at(index)
            assert direct.variant_ids == offers[index].variant_ids
            assert direct.cost == offers[index].cost

    def test_offer_at_out_of_range(self, space):
        with pytest.raises(OfferError):
            space.offer_at(space.offer_count)
        with pytest.raises(OfferError):
            space.offer_at(-1)

    def test_costs_include_copyright(self, space, document):
        offer = space.offer_at(0)
        per_variant = sum(
            space.axis(mid)[0].cost_cents for mid in space.monomedia_ids
        )
        assert offer.cost.cents == per_variant + document.copyright_cost.cents


class TestPrecomputation:
    def test_spec_for_known_variant(self, space, document):
        variant = space.axis(f"{document.document_id}.video")[0].variant
        spec = space.spec_for(variant)
        assert spec.max_bit_rate > spec.avg_bit_rate > 0

    def test_spec_for_unknown_variant(self, space, document):
        foreign = space.rejected[f"{document.document_id}.video"][0]
        with pytest.raises(OfferError):
            space.spec_for(foreign)

    def test_presented_qos_recorded(self, space, document):
        choice = space.axis(f"{document.document_id}.video")[0]
        assert choice.presented == choice.variant.qos  # full-capability client

    def test_cost_axes_arrays(self, space):
        axes = space.cents_axes
        assert len(axes) == 4
        assert all(len(a) > 0 for a in axes)
        assert [list(a) for a in axes] == [
            [choice.cost_cents for choice in space.axis(mid)]
            for mid in space.monomedia_ids
        ]

    def test_spec_for_colliding_variant_ids(self, client):
        # Regression: two monomedia may reuse the same variant_id.  The
        # spec index must key on (monomedia_id, variant_id) — a lookup
        # indexed on variant_id alone returned the *other* monomedia's
        # spec for one of these.
        builder = DocumentBuilder("doc.dup", "colliding variant ids")
        for mono_index, frame_rate in ((1, 25), (2, 10)):
            mono = MonomediaBuilder(
                f"doc.dup.m{mono_index}", Medium.VIDEO,
                f"segment {mono_index}", 30.0,
            ).add_variant(
                Codecs.MPEG1,
                VideoQoS(color=ColorMode.COLOR, frame_rate=frame_rate,
                         resolution=TV_RESOLUTION),
                "server-a",
            ).build()
            shared = replace(mono.variants[0], variant_id="shared")
            builder.add(replace(mono, variants=(shared,)))
        space = build_offer_space(
            builder.build(), client, default_cost_model()
        )
        for monomedia_id in space.monomedia_ids:
            choice = space.axis(monomedia_id)[0]
            assert choice.variant.variant_id == "shared"
            assert space.spec_for(choice.variant) == choice.spec
        fast, slow = (
            space.spec_for(space.axis(mid)[0].variant)
            for mid in space.monomedia_ids
        )
        assert fast != slow  # 25 f/s vs 10 f/s flows
