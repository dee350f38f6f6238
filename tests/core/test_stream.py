"""Best-first offer streaming ≡ full classification (exact order), and
the pipeline built on it ≡ the eager reference (``tests/oracle.py``)."""

import itertools

import pytest

from repro.client.decoder import DecoderBank
from repro.client.machine import ClientMachine
from repro.core import QoSManager
from repro.core.classification import ClassificationPolicy, classify_space
from repro.core.cost import default_cost_model
from repro.core.enumeration import OfferSpace, build_offer_space
from repro.core.importance import default_importance
from repro.core.preferences import UserPreferences
from repro.core.status import NegotiationStatus, StaticNegotiationStatus
from repro.core.stream import stream_classified
from repro.documents.builder import make_news_article
from tests.oracle import reference_negotiate, signature
from tests.properties.strategies import (
    GRID_FLAVOURS,
    grid_document,
    grid_manager,
    grid_profile,
)


@pytest.fixture
def space():
    document = make_news_article("doc.stream")
    return build_offer_space(
        document, ClientMachine("c1"), default_cost_model()
    )


class TestStreamOrder:
    @pytest.mark.parametrize("policy", list(ClassificationPolicy))
    def test_exact_classified_order(self, space, balanced_profile, policy):
        importance = default_importance()
        streamed = list(
            stream_classified(
                space, balanced_profile, importance, policy=policy
            )
        )
        full = classify_space(
            space, balanced_profile, importance, policy=policy
        )
        assert len(streamed) == len(full) == space.offer_count
        for s, f in zip(streamed, full):
            assert s.offer.offer_id == f.offer.offer_id
            assert s.sns is f.sns
            assert s.affordable == f.affordable
            # Bit-identical, not approximately equal: the stream replays
            # the vectorized path's float operation order.
            assert s.oif == f.oif

    def test_lazy_prefix_no_full_drain(self, space, balanced_profile):
        # The whole point: taking the head must not enumerate the tail.
        head = list(
            itertools.islice(
                stream_classified(
                    space, balanced_profile, default_importance()
                ),
                3,
            )
        )
        full = classify_space(space, balanced_profile, default_importance())
        assert [c.offer.offer_id for c in head] == [
            c.offer.offer_id for c in full[:3]
        ]

    def test_empty_space_yields_nothing(self, balanced_profile):
        # Same contract as classify_space: an empty space classifies
        # to an empty ranking.
        document = make_news_article("doc.stream-empty")
        client = ClientMachine("bare", decoders=DecoderBank(()))
        space = build_offer_space(document, client, default_cost_model())
        assert list(
            stream_classified(space, balanced_profile, default_importance())
        ) == []


class TestNegotiationModes:
    """The lazy pipeline against the eager full-sort reference."""

    def test_same_outcome_as_full(self, manager, document,
                                       balanced_profile, client):
        full = reference_negotiate(
            manager, document.document_id, balanced_profile, client
        )
        full.commitment.release()
        other = manager.negotiate(
            document.document_id, balanced_profile, client
        )
        assert signature(other) == signature(full)
        other.commitment.release()

    def test_ensure_classified_completes_ranking(self, manager, document,
                                                 balanced_profile, client):
        full = reference_negotiate(
            manager, document.document_id, balanced_profile, client
        )
        full.commitment.release()
        streamed = manager.negotiate(
            document.document_id, balanced_profile, client
        )
        # The result holds only the pulled prefix until drained.
        assert len(streamed.classified) < len(full.classified)
        drained = streamed.ensure_classified()
        assert [c.offer.offer_id for c in drained] == [
            c.offer.offer_id for c in full.classified
        ]
        streamed.commitment.release()

    def test_nontrivial_preferences_fall_back_to_full(
        self, manager, document, balanced_profile, client
    ):
        # offer_bonus makes scores non-separable per axis; the plan
        # sorts and re-ranks eagerly and must agree with the reference,
        # offer for offer and bonus-adjusted OIF for OIF.
        from dataclasses import replace

        biased = replace(
            balanced_profile,
            preferences=UserPreferences(
                server_preference={"server-a": 0.5}
            ),
        )
        full = reference_negotiate(
            manager, document.document_id, biased, client
        )
        full.commitment.release()
        ranked = manager.negotiate(document.document_id, biased, client)
        assert signature(ranked) == signature(full)
        assert [
            (c.offer.offer_id, c.oif) for c in ranked.ensure_classified()
        ] == [(c.offer.offer_id, c.oif) for c in full.classified]
        ranked.commitment.release()

    def test_try_later_signature_matches(self, manager, document,
                                         balanced_profile, client, topology):
        topology.link("L-client").set_congestion(1.0)
        full = reference_negotiate(
            manager, document.document_id, balanced_profile, client
        )
        streamed = manager.negotiate(
            document.document_id, balanced_profile, client
        )
        assert full.status is NegotiationStatus.FAILED_TRY_LATER
        assert signature(streamed) == signature(full)


# -- band-lazy walk -----------------------------------------------------------------

# Colour 25 fps is desired, colour 15 fps acceptable, grey a CONSTRAINT:
# 3 axes x 3 variants = 1 DESIRABLE + 7 ACCEPTABLE + 19 CONSTRAINT
# offers, and under PURE_OIF the CONSTRAINT ones interleave with the
# ACCEPTABLE ones.
WALK_FLAVOURS = [GRID_FLAVOURS[0], GRID_FLAVOURS[1], GRID_FLAVOURS[3]]
DEAREST_CENTS = 109


def walk_manager(stream_caps, *, policy=ClassificationPolicy.SNS_PRIMARY):
    """A three-server deployment whose only limits are per-server
    stream caps; variant ``v`` of axis ``x`` sits on server
    ``(x + v) mod 3``."""
    return grid_manager(
        [grid_document([WALK_FLAVOURS] * 3)], stream_caps, policy=policy
    )


def occupy(manager, server_id):
    """Fill ``server_id`` to its stream cap with foreign streams."""
    server = manager.committer.servers[server_id]
    while server.can_admit(1e5):
        server.admit("squatter", 1e5, holder="squatter")


def walk_client():
    return ClientMachine("walker", access_point="client-net")


class TestPlanPolicy:
    """The walk must follow the policy the stream was built under, not
    the manager's default."""

    @pytest.mark.parametrize(
        "override",
        [ClassificationPolicy.PURE_OIF, ClassificationPolicy.COST_GATED],
    )
    @pytest.mark.parametrize("budget", [DEAREST_CENTS, DEAREST_CENTS - 10])
    def test_per_call_policy_matches_full_sort(self, override, budget):
        # server-a is full, server-b takes one stream, server-c two.
        # Under PURE_OIF the first committable satisfying offer
        # (offer-13) ranks *after* a committable CONSTRAINT one
        # (offer-19): a walk that trusted the SNS_PRIMARY default would
        # stop deferring at the first CONSTRAINT offer and settle for
        # offer-19.
        profile = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], budget)
        signatures = []
        for negotiate in (reference_negotiate, QoSManager.negotiate):
            manager = walk_manager((1, 1, 2))
            occupy(manager, "server-a")
            result = negotiate(
                manager, "doc.grid", profile, walk_client(), policy=override
            )
            signatures.append(signature(result))
        assert signatures[0] == signatures[1]
        if override is ClassificationPolicy.PURE_OIF:
            assert signatures[0][0] == (
                "SUCCEEDED" if budget == DEAREST_CENTS
                else "FAILED_WITH_OFFER"
            )
            assert signatures[0][2] > 4  # walked past the first CONSTRAINT

    def test_plans_record_their_policy(self):
        manager = walk_manager((4, 4, 4))
        profile = grid_profile(
            GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS
        )
        default = manager.plan("doc.grid", profile, walk_client())
        assert default.policy is ClassificationPolicy.SNS_PRIMARY
        override = manager.plan(
            "doc.grid", profile, walk_client(),
            policy=ClassificationPolicy.PURE_OIF,
        )
        assert override.policy is ClassificationPolicy.PURE_OIF

    def test_batch_replay_cursors_carry_the_policy(self):
        """Three members of one PURE_OIF class share a replayable
        stream; each member's walk must still know it is unbanded."""
        from repro.batch import BatchRequest, negotiate_batch
        from repro.batch.engine import _ClassPlan

        profile = grid_profile(
            GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS
        )
        policy = ClassificationPolicy.PURE_OIF
        batched, sequential = walk_manager((1, 1, 5)), walk_manager((1, 1, 5))
        for manager in (batched, sequential):
            occupy(manager, "server-a")
        results = negotiate_batch(batched, [
            BatchRequest("doc.grid", profile, walk_client(), policy=policy)
        ] * 3)
        expected = [
            signature(reference_negotiate(
                sequential, "doc.grid", profile, walk_client(), policy=policy
            ))
            for _ in range(3)
        ]
        assert [signature(r) for r in results] == expected
        assert expected[0][0] == "SUCCEEDED"
        assert expected[1][0] == "FAILED_WITH_OFFER"
        plan = batched.plan("doc.grid", profile, walk_client(), policy=policy)
        assert _ClassPlan(plan).member_plan().policy is policy

    def test_banded_override_on_a_pure_oif_manager_walks_lazily(self):
        manager = walk_manager(
            (1, 1, 3), policy=ClassificationPolicy.PURE_OIF
        )
        occupy(manager, "server-a")
        occupy(manager, "server-b")  # every satisfying offer now fails
        profile = grid_profile(
            GRID_FLAVOURS[0], GRID_FLAVOURS[1], DEAREST_CENTS
        )
        result = manager.negotiate(
            "doc.grid", profile, walk_client(),
            policy=ClassificationPolicy.SNS_PRIMARY,
        )
        assert result.status is NegotiationStatus.FAILED_WITH_OFFER
        assert len(result.classified) == result.attempts < 27


class TestWalkMaterialisesWhatItAttempts:
    def _negotiate(self, monkeypatch, budget):
        """server-a and server-b full: only the all-on-server-c offer
        (offer-22, a CONSTRAINT one) commits.  Returns the result, the
        flat indices materialised and the offer ids attempted."""
        manager = walk_manager((1, 1, 3))
        occupy(manager, "server-a")
        occupy(manager, "server-b")
        materialised, attempted = [], []
        offer_at = OfferSpace.offer_at
        try_commit = manager.committer.try_commit

        def counting_offer_at(space, flat):
            materialised.append(flat)
            return offer_at(space, flat)

        def recording_try_commit(offer, *args, **kwargs):
            attempted.append(offer.offer_id)
            return try_commit(offer, *args, **kwargs)

        monkeypatch.setattr(OfferSpace, "offer_at", counting_offer_at)
        monkeypatch.setattr(
            manager.committer, "try_commit", recording_try_commit
        )
        profile = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[1], budget)
        result = manager.negotiate("doc.grid", profile, walk_client())
        return manager, profile, result, materialised, attempted

    def test_failed_with_offer_materialises_the_attempted_offers(
        self, monkeypatch
    ):
        _, _, result, materialised, attempted = self._negotiate(
            monkeypatch, DEAREST_CENTS
        )
        assert result.status is NegotiationStatus.FAILED_WITH_OFFER
        assert result.chosen.offer.offer_id == "offer-22"
        # Every offer is affordable, so nothing is ever deferred: what
        # was pulled is what was attempted, in order, and the walk
        # stopped well short of the 27-offer space.
        assert [c.offer.offer_id for c in result.classified] == attempted
        assert len(materialised) == result.attempts == len(attempted) < 27

    def test_deferred_offers_are_the_only_extra_materialisations(
        self, monkeypatch
    ):
        # Ten cents under the dearest price: the dearest offers are
        # QoS-satisfying but unaffordable, hence deferred until the
        # first CONSTRAINT offer and attempted from there on.
        manager, profile, result, materialised, attempted = self._negotiate(
            monkeypatch, DEAREST_CENTS - 10
        )
        assert result.status is NegotiationStatus.FAILED_WITH_OFFER
        assert len(materialised) == len(result.classified) < 27
        assert sorted(c.offer.offer_id for c in result.classified) == sorted(
            attempted
        )
        deferred = [
            c for c in result.classified
            if not c.satisfies_user
            and c.sns is not StaticNegotiationStatus.CONSTRAINT
        ]
        assert deferred
        # The lazy walk and the eager reference attempt the same
        # sequence.
        full = walk_manager((1, 1, 3))
        occupy(full, "server-a")
        occupy(full, "server-b")
        eager = reference_negotiate(full, "doc.grid", profile, walk_client())
        assert signature(eager) == signature(result)

    def test_ensure_classified_completes_any_verdict(self, monkeypatch):
        _, profile, result, _, _ = self._negotiate(
            monkeypatch, DEAREST_CENTS - 10
        )
        full = classify_space(
            result.offer_space, profile, default_importance()
        )
        assert len(result.classified) < len(full)
        assert [
            (c.offer.offer_id, c.sns, c.oif, c.affordable)
            for c in result.ensure_classified()
        ] == [(c.offer.offer_id, c.sns, c.oif, c.affordable) for c in full]
