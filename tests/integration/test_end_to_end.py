"""Cross-module integration: the full negotiation→confirm→play→adapt→
complete lifecycle over every substrate at once."""

import pytest

from repro.client.machine import ClientMachine
from repro.core.status import NegotiationStatus
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.session.playout import SessionState
from repro.sim.scenario import ScenarioSpec, build_scenario
from repro.ui.windows import information_window


class TestFullLifecycle:
    def test_negotiate_confirm_play_complete(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec(server_count=2, document_count=2))
        runtime = scenario.runtime()
        client = scenario.any_client()
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, client
        )
        assert result.status is NegotiationStatus.SUCCEEDED
        session = runtime.start_session(result, balanced_profile, client)
        scenario.loop.run()
        assert session.state is SessionState.COMPLETED
        assert scenario.transport.flow_count == 0
        assert all(s.stream_count == 0 for s in scenario.servers.values())

    def test_rejection_releases_everything(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec())
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, scenario.any_client()
        )
        result.commitment.reject(scenario.clock.now())
        assert scenario.transport.flow_count == 0

    def test_confirmation_timeout_releases(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec())
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, scenario.any_client()
        )
        deadline = result.commitment.deadline
        scenario.clock.advance_to(deadline + 1.0)
        assert result.commitment.expire_check(scenario.clock.now())
        assert scenario.transport.flow_count == 0

    def test_adaptation_lifecycle_under_injection(self, balanced_profile):
        scenario = build_scenario(
            ScenarioSpec(server_count=3, document_count=2)
        )
        runtime = scenario.runtime()
        client = scenario.any_client()
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, client
        )
        session = runtime.start_session(result, balanced_profile, client)
        # Congest the link of every server the session currently uses.
        plan = FaultPlan(tuple(
            FaultSpec(FaultKind.LINK_FLAP, f"L-{server_id}", 10.0, 40.0, 0.98)
            for server_id in result.chosen.offer.servers_used()
        ))
        FaultInjector(plan).install(
            scenario.servers, scenario.transport
        ).arm(scenario.loop)
        scenario.loop.run()
        assert session.state is SessionState.COMPLETED
        assert session.record.adaptations >= 1
        assert scenario.transport.flow_count == 0

    def test_capacity_exhaustion_and_recovery(self, balanced_profile):
        scenario = build_scenario(
            ScenarioSpec(server_count=1, client_count=1, document_count=1)
        )
        client = scenario.any_client()
        document_id = scenario.document_ids()[0]
        held = []
        while True:
            result = scenario.manager.negotiate(
                document_id, balanced_profile, client
            )
            if result.status is NegotiationStatus.FAILED_TRY_LATER:
                break
            result.commitment.confirm(scenario.clock.now())
            held.append(result)
            assert len(held) < 200, "capacity never exhausted"
        assert held, "nothing was ever admitted"
        # Release one session: the next request succeeds again.
        held.pop().commitment.release()
        retry = scenario.manager.negotiate(document_id, balanced_profile, client)
        assert retry.status is not NegotiationStatus.FAILED_TRY_LATER
        retry.commitment.release()
        for result in held:
            result.commitment.release()


class TestRenegotiation:
    def test_user_rejects_then_relaxes_profile(self, premium_profile, balanced_profile):
        """The §8 renegotiation flow: reject the offer, edit the profile,
        negotiate again."""
        scenario = build_scenario(ScenarioSpec())
        client = scenario.any_client()
        document_id = scenario.document_ids()[0]
        first = scenario.manager.negotiate(document_id, premium_profile, client)
        assert first.status.reserves_resources
        first.commitment.reject(scenario.clock.now())
        assert scenario.transport.flow_count == 0
        second = scenario.manager.negotiate(document_id, balanced_profile, client)
        assert second.status is NegotiationStatus.SUCCEEDED
        second.commitment.release()

    def test_information_window_round(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec())
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, scenario.any_client()
        )
        window = information_window(result)
        assert "SUCCEEDED" in window
        result.commitment.release()


class TestMultiClientContention:
    def test_distinct_clients_share_backbone(self, balanced_profile):
        scenario = build_scenario(
            ScenarioSpec(server_count=2, client_count=3, document_count=2)
        )
        results = []
        for client in scenario.clients.values():
            result = scenario.manager.negotiate(
                scenario.document_ids()[0], balanced_profile, client
            )
            assert result.status is NegotiationStatus.SUCCEEDED
            results.append(result)
        # Flows from different clients end at different access points.
        targets = {
            flow.target
            for result in results
            for flow in result.commitment.bundle.flows
        }
        assert len(targets) == 3
        for result in results:
            result.commitment.release()
