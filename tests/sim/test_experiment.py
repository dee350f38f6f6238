"""Workload execution driver."""

import pytest

from repro.core.status import NegotiationStatus
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sim.baselines import SmartNegotiator, StaticNegotiator
from repro.sim.experiment import RunConfig, run_workload
from repro.sim.scenario import ScenarioSpec, build_scenario
from repro.sim.workload import WorkloadSpec, generate_requests


def small_scenario():
    return build_scenario(
        ScenarioSpec(server_count=2, client_count=2, document_count=3)
    )


def requests_for(scenario, rate=0.05, horizon=600.0, seed=11):
    return generate_requests(
        WorkloadSpec(arrival_rate_per_s=rate, horizon_s=horizon),
        scenario.document_ids(),
        list(scenario.clients),
        rng=seed,
    )


class TestRunWorkload:
    def test_counts_every_request(self):
        scenario = small_scenario()
        requests = requests_for(scenario)
        stats = run_workload(scenario, SmartNegotiator(scenario.manager), requests)
        assert stats.offered == len(requests)
        assert stats.statuses.total == len(requests)

    def test_resources_released_at_end(self):
        scenario = small_scenario()
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager), requests_for(scenario)
        )
        assert scenario.transport.flow_count == 0
        assert all(s.stream_count == 0 for s in scenario.servers.values())

    def test_sessions_complete(self):
        scenario = small_scenario()
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager), requests_for(scenario)
        )
        assert stats.completed_sessions == stats.statuses.served

    def test_revenue_positive_under_load(self):
        scenario = small_scenario()
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager), requests_for(scenario)
        )
        assert stats.revenue.cents > 0

    def test_utilization_sampled(self):
        scenario = small_scenario()
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager), requests_for(scenario)
        )
        assert stats.network_utilization.peak > 0

    def test_reproducible(self):
        def run():
            scenario = small_scenario()
            return run_workload(
                scenario, SmartNegotiator(scenario.manager),
                requests_for(scenario),
            )

        a, b = run(), run()
        assert a.statuses.as_dict() == b.statuses.as_dict()
        assert a.revenue == b.revenue

    def test_heavy_load_blocks(self):
        scenario = small_scenario()
        stats = run_workload(
            scenario,
            SmartNegotiator(scenario.manager),
            requests_for(scenario, rate=1.0, horizon=600.0),
        )
        assert stats.blocking_probability > 0.3

    def test_smart_beats_static_under_load(self):
        results = {}
        for cls in (SmartNegotiator, StaticNegotiator):
            scenario = small_scenario()
            stats = run_workload(
                scenario,
                cls(scenario.manager),
                requests_for(scenario, rate=0.3, horizon=900.0),
            )
            results[cls.__name__] = stats
        smart = results["SmartNegotiator"]
        static = results["StaticNegotiator"]
        assert smart.statuses.served >= static.statuses.served

    def test_user_rejection_path(self):
        scenario = small_scenario()
        config = RunConfig(user_accepts=lambda result: False)
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager),
            requests_for(scenario), config=config,
        )
        # Offers were made but every one was declined: no sessions.
        assert stats.completed_sessions == 0
        assert stats.revenue.cents == 0
        assert scenario.transport.flow_count == 0

    def test_confirm_delay_with_timeout(self):
        scenario = small_scenario()
        # choice period (60 s default) shorter than the confirm delay:
        # every reservation expires before confirmation.
        config = RunConfig(confirm_delay_s=120.0)
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager),
            requests_for(scenario), config=config,
        )
        assert stats.completed_sessions == 0
        assert scenario.transport.flow_count == 0


class TestRunConfigOptions:
    def test_session_duration_override(self):
        scenario = small_scenario()
        config = RunConfig(
            adaptation_enabled=False, session_duration_s=10.0
        )
        stats = run_workload(
            scenario, SmartNegotiator(scenario.manager),
            requests_for(scenario, rate=0.02, horizon=300.0),
            config=config,
        )
        # Short sessions: far less contention than the 120 s default.
        assert stats.completed_sessions == stats.statuses.served
        assert stats.blocking_probability <= 0.2

    def test_injector_integration(self):
        scenario = small_scenario()
        plan = FaultPlan(
            (FaultSpec(FaultKind.LINK_FLAP, "L-server-a", 100.0, 50.0, 1.0),)
        )
        injector = FaultInjector(plan).install(
            scenario.servers, scenario.transport
        )
        injector.arm(scenario.loop)
        run_workload(
            scenario, SmartNegotiator(scenario.manager),
            requests_for(scenario, rate=0.05, horizon=400.0),
        )
        assert injector.stats.link_flaps == injector.stats.link_heals == 1
        assert scenario.transport.flow_count == 0
