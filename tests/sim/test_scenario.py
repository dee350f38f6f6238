"""Scenario builder."""

import pytest

from repro.sim.scenario import Scenario, ScenarioSpec, build_scenario
from repro.util.errors import SimulationError


class TestScenarioSpec:
    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.server_count >= 1

    def test_invalid_counts(self):
        with pytest.raises(SimulationError):
            ScenarioSpec(server_count=0)
        with pytest.raises(SimulationError):
            ScenarioSpec(client_count=0)
        with pytest.raises(SimulationError):
            ScenarioSpec(document_count=0)


class TestBuildScenario:
    def test_shapes(self):
        scenario = build_scenario(
            ScenarioSpec(server_count=2, client_count=3, document_count=4)
        )
        assert len(scenario.servers) == 2
        assert len(scenario.clients) == 3
        assert len(scenario.catalog) == 4
        assert scenario.database.document_count == 4

    def test_placement_valid(self):
        scenario = build_scenario(ScenarioSpec(server_count=3))
        referenced = {
            variant.server_id
            for document in scenario.catalog
            for variant in document.iter_variants()
        }
        assert referenced <= set(scenario.servers)

    def test_clients_connected(self):
        scenario = build_scenario(ScenarioSpec())
        for client in scenario.clients.values():
            assert scenario.topology.has_node(client.access_point)

    def test_manager_shares_clock(self):
        scenario = build_scenario(ScenarioSpec())
        assert scenario.manager.clock is scenario.clock
        assert scenario.loop.clock is scenario.clock

    def test_negotiation_works_out_of_the_box(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec())
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, scenario.any_client()
        )
        assert result.succeeded
        result.commitment.release()

    def test_reset_resources(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec())
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, scenario.any_client()
        )
        assert scenario.transport.flow_count > 0
        scenario.reset_resources()
        assert scenario.transport.flow_count == 0
        assert scenario.topology.total_reserved_bps() == 0.0

    def test_runtime_factory(self):
        scenario = build_scenario(ScenarioSpec())
        runtime = scenario.runtime()
        assert runtime.manager is scenario.manager


class TestMultiDomainScenario:
    def test_builds_hierarchical_transport(self):
        from repro.network.domains import HierarchicalTransport

        scenario = build_scenario(ScenarioSpec(multi_domain=True))
        assert isinstance(scenario.transport, HierarchicalTransport)
        assert set(scenario.transport.agents) == {
            "provider", "metro", "campus",
        }

    def test_negotiation_over_domains(self, balanced_profile):
        scenario = build_scenario(ScenarioSpec(multi_domain=True))
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], balanced_profile, scenario.any_client()
        )
        assert result.succeeded
        assert scenario.transport.total_messages > 0
        result.commitment.release()

    def test_metro_quota_limits_admission(self, balanced_profile):
        from repro.core.status import NegotiationStatus

        scenario = build_scenario(
            ScenarioSpec(multi_domain=True, metro_transit_quota_bps=15e6)
        )
        held = []
        while True:
            result = scenario.manager.negotiate(
                scenario.document_ids()[0], balanced_profile,
                scenario.any_client(),
            )
            if result.status is NegotiationStatus.FAILED_TRY_LATER:
                break
            held.append(result)
            assert len(held) < 50
        metro = scenario.transport.agents["metro"]
        assert metro.transit_reserved_bps <= 15e6 + 1e-6
        for result in held:
            result.commitment.release()
