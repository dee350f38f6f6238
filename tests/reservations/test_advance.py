"""Advance-booking negotiation ([Haf 96] extension)."""

import importlib.util
import pathlib
from dataclasses import replace

import pytest

from repro.client import ClientMachine
from repro.core import (
    ProfileManager,
    QoSManager,
    SecurityLevel,
    UserPreferences,
)
from repro.core.negotiation import DEFAULT_RETRY_AFTER_S
from repro.core.status import NegotiationStatus
from repro.reservations.advance import AdvanceBookingPlan, AdvanceNegotiator
from repro.telemetry import Telemetry
from repro.util.errors import ReservationError


@pytest.fixture
def advance(manager):
    return AdvanceNegotiator(manager)


class TestNegotiateAdvance:
    def test_booking_succeeds(self, advance, document, balanced_profile, client):
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=3600.0
        )
        assert isinstance(plan, AdvanceBookingPlan)
        assert plan.status is NegotiationStatus.SUCCEEDED
        assert plan.window == (3600.0, 3600.0 + document.duration_s)
        assert plan.bookings
        advance.cancel(plan)

    def test_does_not_touch_live_resources(
        self, advance, document, balanced_profile, client, transport, servers
    ):
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=3600.0
        )
        assert transport.flow_count == 0
        assert all(s.stream_count == 0 for s in servers.values())
        advance.cancel(plan)

    def test_overlapping_windows_contend(self, advance, document,
                                         balanced_profile, client):
        plans = []
        while True:
            plan = advance.negotiate_advance(
                document.document_id, balanced_profile, client, start_s=0.0
            )
            if not isinstance(plan, AdvanceBookingPlan):
                assert plan.status is NegotiationStatus.FAILED_TRY_LATER
                break
            plans.append(plan)
            assert len(plans) < 100
        assert len(plans) >= 2
        for plan in plans:
            advance.cancel(plan)

    def test_disjoint_windows_do_not_contend(self, advance, document,
                                             balanced_profile, client):
        plans = []
        for slot in range(20):
            start = slot * 1000.0
            plan = advance.negotiate_advance(
                document.document_id, balanced_profile, client, start_s=start
            )
            assert isinstance(plan, AdvanceBookingPlan), f"slot {slot}"
            plans.append(plan)
        for plan in plans:
            advance.cancel(plan)

    def test_cancel_frees_window(self, advance, document, balanced_profile, client):
        plans = []
        while True:
            plan = advance.negotiate_advance(
                document.document_id, balanced_profile, client, start_s=0.0
            )
            if not isinstance(plan, AdvanceBookingPlan):
                break
            plans.append(plan)
        advance.cancel(plans.pop())
        retry = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=0.0
        )
        assert isinstance(retry, AdvanceBookingPlan)
        advance.cancel(retry)
        for plan in plans:
            advance.cancel(plan)

    def test_local_failure_carries_over(self, advance, document, balanced_profile):
        from repro.client.machine import ClientMachine
        from repro.documents.media import ColorMode

        bw = ClientMachine("bw", screen_color=ColorMode.BLACK_AND_WHITE,
                           access_point="client-net")
        result = advance.negotiate_advance(
            document.document_id, balanced_profile, bw, start_s=0.0
        )
        assert result.status is NegotiationStatus.FAILED_WITH_LOCAL_OFFER


class TestPreferences:
    """A booking honours the §8 preferences exactly as a live request
    does, on ``examples/secure_newsroom.py``'s deployment: ``archive``
    is CONFIDENTIAL, ``mirror`` PROTECTED, ``cdn`` PUBLIC."""

    @pytest.fixture
    def newsroom(self):
        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples" / "secure_newsroom.py"
        )
        spec = importlib.util.spec_from_file_location("secure_newsroom", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        document, manager = module.build()
        return (
            document.document_id,
            manager,
            ProfileManager().get("balanced"),
            ClientMachine("desk-7", access_point="client-net"),
        )

    def test_server_preference_ranks_the_booking(self, newsroom):
        document_id, manager, base, client = newsroom
        correspondent = replace(base, preferences=UserPreferences(
            server_preference={"mirror": 25.0}
        ))
        live = manager.negotiate(document_id, correspondent, client)
        live.commitment.reject(manager.clock.now())
        booked = AdvanceNegotiator(manager).negotiate_advance(
            document_id, correspondent, client, start_s=3600.0
        )
        assert live.chosen.offer.servers_used() == {"mirror"}
        assert booked.offer.servers_used() == {"mirror"}

    def test_security_floor_is_never_booked_around(self, newsroom):
        document_id, manager, base, client = newsroom
        editor = replace(base, preferences=UserPreferences(
            min_security=SecurityLevel.CONFIDENTIAL
        ))
        advance = AdvanceNegotiator(manager)
        # The hardened archive's ledger holds five such windows; a
        # sixth must wait, not spill onto the PROTECTED mirror.
        outcomes = [
            advance.negotiate_advance(
                document_id, editor, client, start_s=3600.0
            )
            for _ in range(6)
        ]
        for plan in outcomes[:5]:
            assert plan.status is NegotiationStatus.SUCCEEDED
            assert plan.offer.servers_used() == {"archive"}
        assert outcomes[5].status is NegotiationStatus.FAILED_TRY_LATER


class TestClaim:
    def test_claim_converts_to_live_commitment(
        self, advance, manager, document, balanced_profile, client, transport
    ):
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=0.0
        )
        result = advance.claim(plan, balanced_profile, client)
        assert result.status is NegotiationStatus.SUCCEEDED
        assert transport.flow_count == len(plan.offer.variants)
        # The bookings are gone: the window is free again.
        assert all(len(l) == 0 for l in plan.ledgers)
        result.commitment.release()

    def test_double_claim_rejected(self, advance, document, balanced_profile, client):
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=0.0
        )
        result = advance.claim(plan, balanced_profile, client)
        with pytest.raises(ReservationError):
            advance.claim(plan, balanced_profile, client)
        result.commitment.release()

    def test_claim_fails_when_live_system_full(
        self, advance, document, balanced_profile, client, topology
    ):
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=0.0
        )
        topology.link("L-client").set_congestion(1.0)
        result = advance.claim(plan, balanced_profile, client)
        assert result.status is NegotiationStatus.FAILED_TRY_LATER
        # A step-5 verdict like any other: the one attempt is counted,
        # the space and a retry hint come with it.
        assert result.attempts == 1
        assert result.classified == [plan.classified]
        assert result.offer_space is not None
        assert result.retry_after_s == DEFAULT_RETRY_AFTER_S

    def test_claimed_commitment_reports_to_the_managers_telemetry(
        self, database, transport, servers, clock, document,
        balanced_profile, client,
    ):
        telemetry = Telemetry(clock=clock, seed=0)
        manager = QoSManager(
            database=database, transport=transport, servers=servers,
            clock=clock, telemetry=telemetry,
        )
        advance = AdvanceNegotiator(manager)
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=0.0
        )
        result = advance.claim(plan, balanced_profile, client)
        assert (result.status, result.chosen) == (plan.status, plan.classified)
        assert result.user_offer == plan.user_offer
        result.commitment.confirm(clock.now())
        assert telemetry.metrics.counter_value(
            "commitment.outcomes", state="confirmed"
        ) == 1
        result.commitment.release()

    def test_cancel_idempotent(self, advance, document, balanced_profile, client):
        plan = advance.negotiate_advance(
            document.document_id, balanced_profile, client, start_s=0.0
        )
        advance.cancel(plan)
        advance.cancel(plan)  # no raise
        assert plan.cancelled
