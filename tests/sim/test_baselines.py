"""Baseline negotiators: selection-order semantics."""

import pytest

from repro.core import QoSManager
from repro.core.negotiation import DEFAULT_RETRY_AFTER_S
from repro.core.status import NegotiationStatus
from repro.sim.baselines import (
    ALL_BASELINES,
    CostOnlyNegotiator,
    FirstFitNegotiator,
    QoSOnlyNegotiator,
    SmartNegotiator,
    StaticNegotiator,
)
from repro.telemetry import Telemetry


class TestSmartNegotiator:
    def test_delegates_to_manager(self, manager, document, balanced_profile, client):
        negotiator = SmartNegotiator(manager)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        assert result.status is NegotiationStatus.SUCCEEDED
        result.commitment.release()


class TestStaticNegotiator:
    def test_single_attempt_only(self, manager, document, balanced_profile, client):
        negotiator = StaticNegotiator(manager)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        assert result.attempts == 1
        if result.commitment:
            result.commitment.release()

    def test_blocks_when_best_unavailable(
        self, manager, document, balanced_profile, client, topology
    ):
        # The best-quality offer needs the full rate; choke the network
        # so only low offers fit — static has no fallback and blocks.
        topology.link("L-client").set_congestion(0.97)
        negotiator = StaticNegotiator(manager)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        assert result.status is NegotiationStatus.FAILED_TRY_LATER
        assert result.attempts == 1 and result.offer_space is not None
        assert result.retry_after_s == DEFAULT_RETRY_AFTER_S

    def test_smart_survives_same_squeeze(
        self, manager, document, balanced_profile, client, topology
    ):
        topology.link("L-client").set_congestion(0.97)
        result = SmartNegotiator(manager).negotiate(
            document.document_id, balanced_profile, client
        )
        assert result.status in (
            NegotiationStatus.SUCCEEDED, NegotiationStatus.FAILED_WITH_OFFER
        )
        result.commitment.release()


class TestCostOnlyNegotiator:
    def test_picks_cheapest(self, manager, document, balanced_profile, client):
        negotiator = CostOnlyNegotiator(manager)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        cheapest = min(c.offer.cost for c in result.classified)
        assert result.chosen.offer.cost == cheapest
        result.commitment.release()


class TestQoSOnlyNegotiator:
    def test_picks_highest_quality(self, manager, document, balanced_profile, client):
        negotiator = QoSOnlyNegotiator(manager)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        # The chosen offer's cost is among the highest (quality tracks
        # cost in the rate model).
        costs = sorted(c.offer.cost for c in result.classified)
        assert result.chosen.offer.cost >= costs[len(costs) // 2]
        result.commitment.release()


class TestFirstFitNegotiator:
    def test_enumeration_order(self, manager, document, balanced_profile, client):
        negotiator = FirstFitNegotiator(manager)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        assert result.chosen.offer.offer_id == "offer-1"
        result.commitment.release()


class TestCommonBehaviour:
    def test_all_run_step1_and_step2(self, manager, document, balanced_profile):
        from repro.client.decoder import DecoderBank
        from repro.client.machine import ClientMachine
        from repro.documents.media import ColorMode

        bw = ClientMachine("bw", screen_color=ColorMode.BLACK_AND_WHITE,
                           access_point="client-net")
        bare = ClientMachine("bare", decoders=DecoderBank(()),
                             access_point="client-net")
        for negotiator in ALL_BASELINES(manager):
            result = negotiator.negotiate(
                document.document_id, balanced_profile, bw
            )
            assert result.status is NegotiationStatus.FAILED_WITH_LOCAL_OFFER
            result = negotiator.negotiate(
                document.document_id, balanced_profile, bare
            )
            assert result.status is NegotiationStatus.FAILED_WITHOUT_OFFER

    def test_names_unique(self, manager):
        names = [n.name for n in ALL_BASELINES(manager)]
        assert len(names) == len(set(names))

    def test_holders_come_from_the_managers_counter(
        self, manager, clock, document, balanced_profile, client
    ):
        # Two arrivals 1 ms apart past t = 1000 s print alike under %g;
        # a holder built from the clock would collide in a journal.
        negotiator = CostOnlyNegotiator(manager)
        clock.advance(1000.001)
        first = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        clock.advance(0.001)
        second = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        live = manager.negotiate(document.document_id, balanced_profile, client)
        holders = [
            r.commitment.bundle.holder for r in (first, second, live)
        ]
        assert holders == ["session-1", "session-2", "session-3"]
        for result in (first, second, live):
            result.commitment.release()


    def test_commitments_report_to_the_managers_telemetry(
        self, database, transport, servers, clock, document,
        balanced_profile, client,
    ):
        telemetry = Telemetry(clock=clock, seed=0)
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock, telemetry=telemetry,
        )
        result = CostOnlyNegotiator(manager).negotiate(
            document.document_id, balanced_profile, client
        )
        result.commitment.confirm(clock.now())
        assert telemetry.metrics.counter_value(
            "commitment.outcomes", state="confirmed"
        ) == 1
        result.commitment.release()


class TestRandomNegotiator:
    def test_reproducible_with_seed(self, manager, document, balanced_profile, client):
        from repro.sim.baselines import RandomNegotiator

        def run(seed):
            negotiator = RandomNegotiator(manager, seed=seed)
            result = negotiator.negotiate(
                document.document_id, balanced_profile, client
            )
            chosen = result.chosen.offer.offer_id
            result.commitment.release()
            return chosen

        assert run(5) == run(5)

    def test_is_permutation(self, manager, document, balanced_profile, client):
        from repro.sim.baselines import RandomNegotiator

        negotiator = RandomNegotiator(manager, seed=3)
        result = negotiator.negotiate(
            document.document_id, balanced_profile, client
        )
        ids = sorted(c.offer.offer_id for c in result.classified)
        assert len(ids) == len(set(ids))
        result.commitment.release()
