"""Best-first streaming ≡ full classification on random offer spaces.

The heap-based stream must reproduce ``classify_space``'s order *exactly*
— same offer ids, same SNS levels, bit-identical OIF values — for every
policy, on arbitrary documents and profiles, ties included.  This is
what lets steps 3–5 consume the stream in place of the full sort.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.core.classification import ClassificationPolicy, classify_space
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.stream import stream_classified
from repro.documents.document import Document
from repro.documents.monomedia import Monomedia

from .strategies import banded_cases, video_variants


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


class TestStreamEquivalence:
    @given(
        random_spaces(),
        random_profiles(),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_matches_full_sort(self, space, profile, policy):
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

    @given(
        st.sampled_from(["empty", "single", "any"]).flatmap(banded_cases),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=90, deadline=None)
    def test_banded_stream_matches_full_sort(self, case, policy):
        """Band by band: an empty or one-offer DESIRABLE band, budgets
        that make a whole band (or part of one) unaffordable, replica
        ties — the per-band searches still concatenate to the lexsort
        order, float for float."""
        space, profile = case
        importance = default_importance()
        streamed = list(
            stream_classified(space, profile, importance, policy=policy)
        )
        full = classify_space(space, profile, importance, policy=policy)
        assert [
            (s.offer.offer_id, s.sns, s.affordable, s.oif) for s in streamed
        ] == [(f.offer.offer_id, f.sns, f.affordable, f.oif) for f in full]

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
    and attempt count, with and without offer_bonus preferences (which
    make the plan sort the whole space instead of streaming it)."""

    @given(
        random_profiles(),
        st.booleans(),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=25, deadline=None)
    def test_modes_agree(self, profile, biased, policy):
        from dataclasses import replace

        from repro.core import QoSManager
        from repro.core.preferences import UserPreferences
        from repro.sim import ScenarioSpec, build_scenario
        from tests.oracle import reference_negotiate, signature

        if biased:
            profile = replace(
                profile,
                preferences=UserPreferences(
                    server_preference={"server-a": 0.25}
                ),
            )
        signatures = []
        for negotiate, use_cache in (
            (reference_negotiate, False),
            (QoSManager.negotiate, False),
            (QoSManager.negotiate, True),
        ):
            scenario = build_scenario(
                ScenarioSpec(document_count=1),
                policy=policy,
                use_cache=use_cache,
            )
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
