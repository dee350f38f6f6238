"""Vectorized classification ≡ scalar reference on random offer spaces,
with and without server preference weights."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.core.classification import (
    ClassificationPolicy,
    classify_offers,
    classify_space,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.profiles import MMProfile, UserProfile
from repro.documents.document import Document
from repro.documents.media import ColorMode
from repro.documents.monomedia import Monomedia
from repro.documents.quality import VideoQoS

from .strategies import banded_cases, server_weights, video_variants, weighted


@st.composite
def random_spaces(draw):
    """A 1–3 monomedia document with 1–4 MPEG video variants each."""
    components = []
    n_components = draw(st.integers(min_value=1, max_value=3))
    for c in range(n_components):
        monomedia_id = f"m{c}.video"
        count = draw(st.integers(min_value=1, max_value=4))
        variants = tuple(
            draw(video_variants(monomedia_id=monomedia_id, index=i))
            for i in range(count)
        )
        components.append(
            Monomedia(
                monomedia_id=monomedia_id,
                medium="video",
                title=f"clip {c}",
                duration_s=max(v.duration_s for v in variants),
                variants=variants,
            )
        )
    document = Document(
        document_id="doc.prop",
        title="prop",
        components=tuple(components),
    )
    client = ClientMachine("c", access_point="net")
    return build_offer_space(document, client, default_cost_model())


@st.composite
def random_profiles(draw):
    worst = VideoQoS(
        color=ColorMode(draw(st.integers(min_value=0, max_value=3))),
        frame_rate=draw(st.integers(min_value=1, max_value=60)),
        resolution=draw(st.integers(min_value=10, max_value=1920)),
    )
    desired = VideoQoS(
        color=ColorMode(draw(st.integers(min_value=int(worst.color), max_value=3))),
        frame_rate=draw(st.integers(min_value=worst.frame_rate, max_value=60)),
        resolution=draw(st.integers(min_value=worst.resolution, max_value=1920)),
    )
    cost = draw(st.integers(min_value=0, max_value=5_000)) / 100
    return UserProfile(
        name="prop",
        desired=MMProfile(video=desired, cost=cost),
        worst=MMProfile(video=worst, cost=cost),
        importance=default_importance(),
    )


class TestVectorizedEquivalence:
    @given(
        random_spaces(),
        random_profiles(),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_scalar(self, space, profile, policy):
        importance = default_importance()
        vectorized = classify_space(space, profile, importance, policy=policy)
        scalar = classify_offers(
            space.materialize(), profile, importance, policy=policy
        )
        assert len(vectorized) == len(scalar)
        for v, s in zip(vectorized, scalar):
            assert v.offer.variant_ids == s.offer.variant_ids
            assert v.sns == s.sns
            assert v.oif == pytest.approx(s.oif, abs=1e-9)
            assert v.affordable == s.affordable


@st.composite
def weighted_cases(draw):
    """``(space, profile)`` with server weights: a random space, or a
    grid whose replicas tie exactly before and after weighting."""
    if draw(st.booleans()):
        space, profile = draw(random_spaces()), draw(random_profiles())
    else:
        space, profile = draw(banded_cases())
    return space, weighted(profile, draw(server_weights()))


def tie_groups(ranked, banded):
    """Runs of offers the order cannot tell apart: the same SNS (under
    the banded policies) and OIFs within 1e-9 of their neighbour."""
    groups = []
    for item in ranked:
        if groups:
            last = groups[-1][-1]
            if abs(item.oif - last.oif) <= 1e-9 and (
                not banded or item.sns is last.sns
            ):
                groups[-1].append(item)
                continue
        groups.append([item])
    return groups


class TestWeightedEquivalence:
    @given(weighted_cases(), st.sampled_from(list(ClassificationPolicy)))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_scalar_modulo_ties(self, case, policy):
        """The vectorized OIF sums (QoS importance + weight) per axis,
        the scalar one adds the offer's summed weights last, so the two
        orders agree position by position except inside a run of offers
        whose OIFs agree within 1e-9, which is compared as a set."""
        space, profile = case
        importance = default_importance()
        vectorized = classify_space(space, profile, importance, policy=policy)
        scalar = classify_offers(
            space.materialize(), profile, importance, policy=policy
        )
        assert len(vectorized) == len(scalar)
        at = 0
        banded = policy is not ClassificationPolicy.PURE_OIF
        for group in tie_groups(vectorized, banded):
            peers = scalar[at : at + len(group)]
            at += len(group)
            expected = {v.offer.variant_ids: v for v in group}
            assert {s.offer.variant_ids for s in peers} == set(expected)
            for s in peers:
                v = expected[s.offer.variant_ids]
                assert (s.sns, s.affordable) == (v.sns, v.affordable)
                assert s.oif == pytest.approx(v.oif, abs=1e-9)
