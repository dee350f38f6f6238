"""Best-first streaming ≡ full classification on random offer spaces.

The heap-based stream must reproduce ``classify_space``'s order *exactly*
— same offer ids, same SNS levels, bit-identical OIF values — for every
policy, on arbitrary documents and profiles, ties included.  This is
what lets steps 3–5 consume the stream in place of the full sort, for
every request: server preference weights are one more per-variant term
of the score, so weighted profiles stream too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.core.classification import (
    ClassificationPolicy,
    classify_offer,
    classify_space,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.stream import stream_classified
from repro.documents.document import Document
from repro.documents.monomedia import Monomedia

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


def random_profiles():
    from .test_property_vectorized import random_profiles as base

    return base()


def assert_weights_scored(streamed, profile, importance):
    """Each OIF carries the offer's summed server weights: the scalar
    reference adds them after its own OIF."""
    for s in streamed:
        reference = classify_offer(s.offer, profile, importance)
        assert s.oif == pytest.approx(reference.oif, abs=1e-9)


class TestStreamEquivalence:
    @given(
        random_spaces(),
        random_profiles(),
        st.one_of(st.none(), server_weights()),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_matches_full_sort(self, space, profile, weights, policy):
        profile = weighted(profile, weights)
        importance = default_importance()
        streamed = list(
            stream_classified(space, profile, importance, policy=policy)
        )
        full = classify_space(space, profile, importance, policy=policy)
        assert len(streamed) == len(full) == space.offer_count
        for s, f in zip(streamed, full):
            assert s.offer.offer_id == f.offer.offer_id
            assert s.sns is f.sns
            assert s.affordable == f.affordable
            assert s.oif == f.oif  # bit-identical, not approx
        assert_weights_scored(streamed, profile, importance)

    @given(
        st.sampled_from(["empty", "single", "any"]).flatmap(banded_cases),
        st.one_of(st.none(), server_weights()),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=90, deadline=None)
    def test_banded_stream_matches_full_sort(self, case, weights, policy):
        """Band by band: an empty or one-offer DESIRABLE band, budgets
        that make a whole band (or part of one) unaffordable, replica
        ties, server weights that break or keep them — the per-band
        searches still concatenate to the lexsort order, float for
        float."""
        space, profile = case
        profile = weighted(profile, weights)
        importance = default_importance()
        streamed = list(
            stream_classified(space, profile, importance, policy=policy)
        )
        full = classify_space(space, profile, importance, policy=policy)
        assert [
            (s.offer.offer_id, s.sns, s.affordable, s.oif) for s in streamed
        ] == [(f.offer.offer_id, f.sns, f.affordable, f.oif) for f in full]
        assert_weights_scored(streamed, profile, importance)

    @given(random_spaces(), random_profiles())
    @settings(max_examples=30, deadline=None)
    def test_tie_determinism(self, space, profile):
        """Equal-OIF runs must stay in enumeration order on both paths
        — run the stream twice to rule out heap-order nondeterminism."""
        importance = default_importance().with_cost_per_dollar(0.0)
        first = [
            c.offer.offer_id
            for c in stream_classified(space, profile, importance)
        ]
        second = [
            c.offer.offer_id
            for c in stream_classified(space, profile, importance)
        ]
        full = [
            c.offer.offer_id
            for c in classify_space(space, profile, importance)
        ]
        assert first == second == full


class TestNegotiationEquivalence:
    """End to end: the eager full-sort reference and the manager, with
    and without the cache, commit the same offer with the same status
    and attempt count, with and without server preference weights."""

    @given(
        random_profiles(),
        st.one_of(st.none(), server_weights()),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=25, deadline=None)
    def test_modes_agree(self, profile, weights, policy):
        from repro.core import QoSManager
        from repro.sim import ScenarioSpec, build_scenario
        from tests.oracle import reference_negotiate, signature, uncached

        profile = weighted(profile, weights)
        signatures = []
        for negotiate, cached in (
            (reference_negotiate, False),
            (QoSManager.negotiate, False),
            (QoSManager.negotiate, True),
        ):
            scenario = build_scenario(ScenarioSpec(document_count=1))
            scenario.manager.policy = policy
            if not cached:
                uncached(scenario)
            result = negotiate(
                scenario.manager,
                scenario.document_ids()[0],
                profile,
                scenario.any_client(),
            )
            signatures.append(signature(result))
            if result.commitment is not None:
                result.commitment.release()
        assert signatures[0] == signatures[1] == signatures[2]
