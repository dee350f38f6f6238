"""What scoring costs, counted — no clock is read.

Steps 3–4 score each variant once per distinct request on a space.
Counting wrappers hold that to its arithmetic: over A axes with V
variants in total, a first offer costs V importance evaluations, at
most 2·V bound comparisons and at most 2·A bound fetches; a later
request with equal importance tables, QoS bounds and server weights
costs none of them — and no reflection over dataclass fields, no
``np.interp`` call and no recomputation of the space's shape.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.core import enumeration, importance, standard_profiles, stream
from repro.core.classification import ClassificationPolicy
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import ImportanceProfile, default_importance
from repro.core.profiles import MMProfile
from repro.core.status import NegotiationStatus
from repro.core.stream import stream_classified
from repro.documents import quality
from repro.documents.builder import make_news_article
from repro.perf.cache import SPACES, NegotiationCache
from repro.util.units import Money

from .strategies import (
    GRID_FLAVOURS,
    banded_cases,
    grid_document,
    grid_manager,
    grid_profile,
    grid_space,
    offer_cost_bounds,
)


class Calls:
    """Counts calls of ``owner.name`` while installed."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def first_offer_counts(space, profile, importance_profile, policy):
    """``(qos_importance, satisfies, qos_for)`` calls of one first pull."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        scored = Calls(monkeypatch, ImportanceProfile, "qos_importance")
        compared = Calls(monkeypatch, quality._QoSBase, "satisfies")
        fetched = Calls(monkeypatch, MMProfile, "qos_for")
        first = next(
            stream_classified(space, profile, importance_profile, policy=policy)
        )
    assert first.offer.offer_id.startswith("offer-")
    return scored.count, compared.count, fetched.count


class TestFirstOfferWork:
    @given(
        st.sampled_from(["empty", "single", "any"]).flatmap(banded_cases),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_variant_is_scored_once(self, case, policy):
        space, profile = case
        axes = len(space.monomedia_ids)
        variants = sum(space.axis_sizes().values())
        scored, compared, fetched = first_offer_counts(
            space, profile, default_importance(), policy
        )
        assert scored == variants
        assert compared <= 2 * variants
        assert fetched <= 2 * axes

    @pytest.mark.parametrize(
        "profile", standard_profiles(), ids=lambda profile: profile.name
    )
    def test_mixed_media_document(self, profile):
        """Four media, two of which the profiles leave unconstrained:
        those axes cost their fetches and no comparison."""
        space = build_offer_space(
            make_news_article("doc.scoring-work"),
            ClientMachine("c1"),
            default_cost_model(),
        )
        constrained = sum(
            len(space.axis(mid))
            for mid in space.monomedia_ids
            if space.axis(mid)[0].presented.medium in profile.media()
        )
        scored, compared, fetched = first_offer_counts(
            space, profile, profile.importance, ClassificationPolicy.SNS_PRIMARY
        )
        assert scored == sum(space.axis_sizes().values())
        assert 0 < constrained < scored
        assert compared <= 2 * constrained
        assert fetched <= 2 * len(space.monomedia_ids)

    def test_the_plan_unshared_shape(self):
        """6 axes × 4 variants: 24 scorings, ≤ 48 comparisons, ≤ 12
        fetches, whatever the 4096-offer product holds."""
        space = grid_space([GRID_FLAVOURS[:4]] * 6)
        _, dearest = offer_cost_bounds(space)
        profile = grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], dearest)
        scored, compared, fetched = first_offer_counts(
            space, profile, default_importance(),
            ClassificationPolicy.SNS_PRIMARY,
        )
        assert (scored, fetched) == (24, 12)
        assert compared <= 48


class TestRepeatRequestWork:
    """A space scores once per distinct (importance tables, QoS bounds,
    server weights): a later request that differs only in what the
    columns do not read costs no scoring at all."""

    @given(
        st.sampled_from(["empty", "single", "any"]).flatmap(banded_cases),
        st.sampled_from(list(ClassificationPolicy)),
        st.integers(min_value=-1, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_second_request_costs_no_scoring(self, case, policy, shift):
        space, profile = case
        axes = len(space.monomedia_ids)
        variants = sum(space.axis_sizes().values())
        scored, compared, fetched = first_offer_counts(
            space, profile, default_importance(), policy
        )
        assert scored == variants
        assert compared <= 2 * variants
        assert fetched <= 2 * axes

        cents = profile.max_cost.cents + 1 + shift * 250
        if cents < 0:
            cents = profile.max_cost.cents + 1
        repeat = replace(
            profile,
            name="repeat",
            desired=replace(profile.desired, cost=Money(cents)),
            worst=replace(profile.worst, cost=Money(cents)),
        )
        assert repeat.max_cost != profile.max_cost
        fresh = default_importance()
        assert fresh == profile.importance and fresh is not profile.importance
        assert first_offer_counts(space, repeat, fresh, policy) == (0, 0, 0)

    def test_the_memo_keeps_its_bound(self):
        """Twelve distinct tables on one space: the memo holds the
        newest ``ORDER_MEMO_SIZE``; the newest is still scored once, the
        oldest again."""
        space = grid_space([GRID_FLAVOURS[:4]] * 3)
        _, dearest = offer_cost_bounds(space)
        profile = grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], dearest)
        policy = ClassificationPolicy.SNS_PRIMARY

        def table(index):
            return default_importance().with_media_weight(
                "video", 1.0 + index
            )

        for index in range(12):
            assert first_offer_counts(space, profile, table(index), policy)[
                0
            ] == 12
            assert len(space.columns_memo) == min(
                index + 1, stream.ORDER_MEMO_SIZE
            )
        assert first_offer_counts(space, profile, table(11), policy)[0] == 0
        assert first_offer_counts(space, profile, table(0), policy)[0] == 12
        assert len(space.columns_memo) == stream.ORDER_MEMO_SIZE


def forbidden(name):
    def raiser(*args, **kwargs):
        raise AssertionError(f"{name} called on the planning path")

    return raiser


class TestNoSlowRoute:
    def test_warm_negotiation_without_reflection_or_np_interp(
        self, monkeypatch
    ):
        """A whole negotiation over a cached space — plan, walk, commit
        — with ``dataclasses.fields`` and ``np.interp`` booby-trapped."""
        document = grid_document([GRID_FLAVOURS[:4]] * 4)
        manager = grid_manager([document], (8, 8, 8), cache=NegotiationCache())
        client = ClientMachine("grid-client", access_point="client-net")
        space = grid_space([GRID_FLAVOURS[:4]] * 4)
        _, dearest = offer_cost_bounds(space)
        profile = grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], dearest)

        cold = manager.negotiate(document.document_id, profile, client)
        assert cold.status is NegotiationStatus.SUCCEEDED
        cold.commitment.reject(manager.clock.now())
        assert manager.cache.stats.misses[SPACES] == 1

        # Neither module keeps a private handle on the slow route.
        assert "fields" not in vars(quality)
        assert "np" not in vars(importance) and "numpy" not in vars(importance)
        monkeypatch.setattr(dataclasses, "fields", forbidden("dataclasses.fields"))
        monkeypatch.setattr(np, "interp", forbidden("np.interp"))

        warm = manager.negotiate(document.document_id, profile, client)
        assert warm.status is NegotiationStatus.SUCCEEDED
        assert manager.cache.stats.hits[SPACES] == 1
        assert warm.chosen.offer.offer_id == cold.chosen.offer.offer_id

    def test_offer_at_reads_the_shape_the_space_was_built_with(
        self, monkeypatch
    ):
        built = Calls(monkeypatch, enumeration, "_suffix_products")
        space = grid_space([GRID_FLAVOURS[:4]] * 4)
        assert built.count == 1
        offers = [space.offer_at(index) for index in range(space.offer_count)]
        assert [offer.offer_id for offer in offers] == [
            f"offer-{index + 1}" for index in range(256)
        ]
        assert built.count == 1
