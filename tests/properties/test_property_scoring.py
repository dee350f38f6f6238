"""What scoring one variant computes, held to references written here.

Steps 3–4 score every variant once: an SNS level against the desired /
worst-acceptable bound of its medium and a QoS importance from the
anchor tables.  Every float and every level below is compared with a
reference that uses the slow, obviously right route — ``np.interp``,
``dataclasses.fields``, ``compute_sns`` on a one-variant offer,
``iter_offers`` — so the scoring code may change how it iterates and
interpolates but not one bit of what it returns.  OIF floats decide the
classified order, so "equal" means equal bit patterns.
"""

import dataclasses
import itertools
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.decoder import DecoderBank
from repro.client.machine import ClientMachine
from repro.core import standard_profiles
from repro.core.classification import (
    ClassificationPolicy,
    classify_arrays,
    compute_sns,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import (
    ScaleImportance,
    default_importance,
    paper_example_importance,
)
from repro.core.offers import SystemOffer
from repro.core.profiles import MMProfile
from repro.core.stream import _axis_tables, stream_classified
from repro.documents.builder import make_news_article
from repro.documents.media import AudioGrade, ColorMode, Language
from repro.documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    TextQoS,
    VideoQoS,
)
from repro.util.errors import OfferError, ValidationError
from repro.util.units import Money

from .strategies import (
    GRID_FLAVOURS,
    any_qos,
    audio_qos,
    color_modes,
    grid_profile,
    grid_space,
    image_qos,
    offer_cost_bounds,
    resolutions,
    text_qos,
    video_qos,
)


def bits(value: float) -> bytes:
    assert type(value) is float
    return struct.pack("d", value)


# -- (a) ScaleImportance.value ≡ np.interp, bit for bit -----------------------------

# Magnitudes whose differences cannot overflow: with finite anchors the
# interpolation then never meets inf − inf or 0 · inf.
MAGNITUDE = 1e100
scale_numbers = st.one_of(
    st.integers(min_value=-2000, max_value=2000),
    st.floats(min_value=-MAGNITUDE, max_value=MAGNITUDE),
    st.floats(min_value=-64.0, max_value=64.0),
)


@st.composite
def scale_cases(draw):
    """``(anchors, overrides, x)``: 1–6 distinct finite anchors, and an
    ``x`` that is an int or a float, on an anchor, between two, or
    outside the span; some overrides sit exactly on ``x``."""
    xs = draw(st.lists(
        scale_numbers, min_size=1, max_size=6, unique_by=float
    ))
    anchors = {x: draw(scale_numbers) for x in xs}
    low, high = min(xs, key=float), max(xs, key=float)
    x = draw(st.one_of(
        scale_numbers,
        st.sampled_from(xs),
        st.floats(min_value=float(low), max_value=float(high)),
        st.sampled_from([low - 1, high + 1, low - 0.5, high + 0.5]),
    ))
    override_keys = draw(st.lists(
        st.one_of(scale_numbers, st.just(x), st.just(float(x))),
        max_size=3, unique_by=float,
    ))
    overrides = {key: draw(scale_numbers) for key in override_keys}
    return anchors, overrides, x


def interp_oracle(anchors, x) -> float:
    xs = sorted(anchors)
    return float(np.interp(
        float(x),
        np.array(xs, dtype=float),
        np.array([anchors[key] for key in xs], dtype=float),
    ))


class TestScaleValue:
    @given(scale_cases())
    @settings(max_examples=1500, deadline=None)
    def test_value_is_np_interp_unless_an_override_matches(self, case):
        anchors, overrides, x = case
        value = ScaleImportance(anchors=anchors, overrides=overrides).value(x)
        matching = [v for key, v in overrides.items() if key == float(x)]
        if matching:
            assert bits(value) == bits(float(matching[0]))
        else:
            assert bits(value) == bits(interp_oracle(anchors, x))

    @pytest.mark.parametrize(
        "importance", [default_importance(), paper_example_importance()]
    )
    def test_every_legal_scale_value_of_the_shipped_tables(self, importance):
        """Exhaustive over the QoS types' own ranges (frame rates 1–60,
        resolutions 10–1920), ints as the QoS points hold them."""
        for scale, values in (
            (importance.frame_rate, range(1, 61)),
            (importance.resolution, range(10, 1921)),
        ):
            for x in values:
                expected = (
                    float(scale.overrides[x]) if x in scale.overrides
                    else interp_oracle(scale.anchors, x)
                )
                assert bits(scale.value(x)) == bits(expected)


# -- (b) QoS comparisons ≡ a dataclasses.fields reference ---------------------------

graphic_qos = st.builds(GraphicQoS, color=color_modes, resolution=resolutions)
QOS_STRATEGIES = {
    "video": video_qos,
    "audio": audio_qos,
    "image": image_qos,
    "text": text_qos,
    "graphic": graphic_qos,
}
same_class_pairs = st.sampled_from(sorted(QOS_STRATEGIES)).flatmap(
    lambda name: st.tuples(QOS_STRATEGIES[name], QOS_STRATEGIES[name])
)


def ref_items(qos):
    return [
        (field.name, getattr(qos, field.name))
        for field in dataclasses.fields(qos)
    ]


def ref_param_ok(mine, theirs) -> bool:
    if isinstance(mine, Language) or isinstance(theirs, Language):
        return mine == theirs or theirs == Language.NONE
    return mine >= theirs


def ref_violated(qos, requirement):
    if type(requirement) is not type(qos):
        raise ValidationError("type mismatch")
    return tuple(
        name
        for (name, mine), (_, theirs) in zip(
            ref_items(qos), ref_items(requirement)
        )
        if not ref_param_ok(mine, theirs)
    )


def ref_plain(value):
    if isinstance(value, (ColorMode, AudioGrade)):
        return value.name.lower()
    if isinstance(value, Language):
        return value.value
    return value


class TestQoSComparisons:
    @given(same_class_pairs)
    @settings(max_examples=500, deadline=None)
    def test_satisfies_and_violations_match_the_reference(self, pair):
        qos, requirement = pair
        violated = ref_violated(qos, requirement)
        assert qos.violated_parameters(requirement) == violated
        assert qos.satisfies(requirement) is (not violated)

    @given(st.one_of(any_qos, graphic_qos))
    @settings(max_examples=200, deadline=None)
    def test_items_and_dict_keep_declaration_order(self, qos):
        assert list(qos.qos_items()) == ref_items(qos)
        as_dict = qos.as_dict()
        assert list(as_dict.items()) == [
            (name, ref_plain(value)) for name, value in ref_items(qos)
        ]

    def test_comparing_across_classes_raises(self):
        samples = [
            VideoQoS(ColorMode.COLOR, 25, 720),
            AudioQoS(AudioGrade.CD, Language.FRENCH),
            ImageQoS(ColorMode.COLOR, 720),
            TextQoS(Language.FRENCH),
            GraphicQoS(ColorMode.COLOR, 720),
        ]
        for qos, other in itertools.permutations(samples, 2):
            with pytest.raises(ValidationError, match="cannot compare"):
                qos.satisfies(other)
            with pytest.raises(ValidationError, match="cannot compare"):
                qos.violated_parameters(other)

    def test_a_language_is_matched_not_exceeded(self):
        """``Language.NONE`` as a requirement accepts every language;
        any other requirement is an equality match."""
        for mine, theirs in itertools.product(Language, repeat=2):
            expected = mine == theirs or theirs is Language.NONE
            assert TextQoS(mine).satisfies(TextQoS(theirs)) is expected
            assert AudioQoS(AudioGrade.CD, mine).satisfies(
                AudioQoS(AudioGrade.CD, theirs)
            ) is expected


# -- (c) the per-axis columns ≡ the scalar reference --------------------------------

def probe_level(choice, profile) -> int:
    """§5.2.1 on an offer holding this one variant, free of charge: the
    status is then the variant's level and nothing else."""
    monomedia_id = choice.variant.monomedia_id
    offer = SystemOffer(
        offer_id="probe",
        variants={monomedia_id: choice.variant},
        presented={monomedia_id: choice.presented},
        cost=Money(0),
    )
    return int(compute_sns(offer, profile))


def reference_columns(space, profile, importance):
    axes = [space.axis(mid) for mid in space.monomedia_ids]
    return (
        [
            [importance.qos_importance(choice.presented) for choice in axis]
            for axis in axes
        ],
        [[choice.cost_cents for choice in axis] for axis in axes],
        [[probe_level(choice, profile) for choice in axis] for axis in axes],
    )


def assert_columns_match(space, profile, importance):
    """Both orderings against the reference: the stream's tables
    directly, ``classify_arrays`` through every offer of the product
    (left-to-right importance sum, one cost subtraction, max of levels,
    the two cost demotions)."""
    qimp, cents, levels = reference_columns(space, profile, importance)
    tables, _ = _axis_tables(space, profile, importance)
    assert [list(map(bits, column)) for column in tables.qimp] == [
        list(map(bits, column)) for column in qimp
    ]
    assert [list(column) for column in tables.cents] == cents
    assert [list(column) for column in tables.levels] == levels

    budget = profile.max_cost.cents
    picks = list(itertools.product(*(range(len(axis)) for axis in cents)))
    for policy in ClassificationPolicy:
        arrays = classify_arrays(space, profile, importance, policy=policy)
        assert len(arrays.oif) == len(picks) == space.offer_count
        for flat, pick in enumerate(picks):
            qos, total, raw = 0.0, space.copyright_cents, 0
            for axis, j in enumerate(pick):
                qos = qos + qimp[axis][j]
                total += cents[axis][j]
                raw = max(raw, levels[axis][j])
            affordable = total <= budget
            if affordable:
                level = raw
            elif policy is ClassificationPolicy.COST_GATED:
                level = 2
            else:
                level = max(raw, 1)
            oif = qos - importance.cost_per_dollar * (total / 100.0)
            assert bits(float(arrays.oif[flat])) == bits(oif)
            assert int(arrays.sns_levels[flat]) == level
            assert bool(arrays.affordable[flat]) is affordable
        streamed = list(
            stream_classified(space, profile, importance, policy=policy)
        )
        assert [
            (c.offer.offer_id, int(c.sns), bits(c.oif), c.affordable)
            for c in streamed
        ] == [
            (c.offer.offer_id, int(c.sns), bits(c.oif), c.affordable)
            for c in arrays.materialize(space)
        ]


def one_sided(profile, *, desired: bool, worst: bool):
    """``profile`` with the video bound taken out of one side or both.
    ``UserProfile`` refuses a one-sided profile, the scoring code must
    still read it the way ``compute_sns`` does."""
    blank = MMProfile(cost=profile.max_cost)
    return SimpleNamespace(
        desired=profile.desired if desired else blank,
        worst=profile.worst if worst else blank,
        max_cost=profile.max_cost,
    )


@st.composite
def grid_cases(draw):
    """``(space, profile)`` over 1–4 axes of 1–4 variants."""
    flavours_per_axis = draw(st.lists(
        st.lists(st.sampled_from(GRID_FLAVOURS), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    desired = draw(st.sampled_from(GRID_FLAVOURS[:2]))
    worst = draw(st.sampled_from(
        [f for f in GRID_FLAVOURS if f[0] <= desired[0] and f[1] <= desired[1]]
    ))
    space = grid_space(flavours_per_axis)
    cheapest, dearest = offer_cost_bounds(space)
    budget = draw(st.sampled_from(
        [cheapest - 1, (cheapest + dearest) // 2, dearest]
    ))
    return space, grid_profile(desired, worst, budget)


class TestAxisColumns:
    @given(
        grid_cases(),
        st.sampled_from([default_importance(), paper_example_importance()]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_columns_match_the_scalar_reference(self, case, importance):
        space, profile = case
        assert_columns_match(space, profile, importance)

    @given(
        grid_cases(),
        st.sampled_from([(False, True), (True, False), (False, False)]),
    )
    @settings(max_examples=45, deadline=None)
    def test_a_medium_absent_from_a_side_is_not_compared(self, case, sides):
        space, profile = case
        desired, worst = sides
        assert_columns_match(
            space,
            one_sided(profile, desired=desired, worst=worst),
            default_importance(),
        )

    @pytest.mark.parametrize(
        "profile", standard_profiles(), ids=lambda profile: profile.name
    )
    def test_mixed_media_document(self, profile):
        """Video, audio, image and text axes against every shipped
        profile (languages, grades and media the profile leaves out)."""
        space = build_offer_space(
            make_news_article("doc.scoring"),
            ClientMachine("c1"),
            default_cost_model(),
        )
        assert_columns_match(space, profile, profile.importance)


# -- (d) offer_at ≡ iter_offers ------------------------------------------------------

class TestOfferAt:
    @given(st.lists(
        st.lists(st.sampled_from(GRID_FLAVOURS), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=40, deadline=None)
    def test_every_index_is_the_enumerated_offer(self, flavours_per_axis):
        space = grid_space(flavours_per_axis)
        offers = list(space.iter_offers())
        assert len(offers) == space.offer_count
        for index, offer in enumerate(offers):
            assert space.offer_at(index) == offer
            assert offer.offer_id == f"offer-{index + 1}"

    def test_out_of_range_indices_keep_their_error_text(self):
        space = grid_space([GRID_FLAVOURS[:3], GRID_FLAVOURS[:2]])
        assert space.offer_count == 6
        for index in (-1, 6, 7, -6):
            with pytest.raises(OfferError) as caught:
                space.offer_at(index)
            assert str(caught.value) == f"flat index {index} outside [0, 6)"

    def test_empty_space_has_no_offer_at_any_index(self):
        space = build_offer_space(
            make_news_article("doc.scoring-empty"),
            ClientMachine("bare", decoders=DecoderBank(())),
            default_cost_model(),
        )
        assert space.is_empty and space.offer_count == 0
        assert list(space.iter_offers()) == []
        for index in (0, -1, 1):
            with pytest.raises(OfferError) as caught:
                space.offer_at(index)
            assert str(caught.value) == "offer space is empty"
