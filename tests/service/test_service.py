"""The concurrent negotiation service end to end.

Everything runs on one shared deployment: many in-flight §4
negotiations, seeded interleavings, choice-period races, deadline
budgets, and the admission gate in front.  The bar throughout: every
request gets exactly one honest verdict and nothing leaks.
"""

import pytest

from repro.core import ProfileManager
from repro.core.status import NegotiationStatus
from repro.journal import JournalRecordType, ReservationJournal
from repro.service import NegotiationService, ServicePolicy
from repro.sim import ScenarioSpec, build_scenario
from repro.storm import AdmissionGate, GatePolicy
from repro.telemetry.report import reconcile_journal
from repro.util.errors import ValidationError

SPEC = ScenarioSpec(server_count=2, client_count=3, document_count=2)


def build_service(
    journal=None, policy=None, scheduler_seed=0, seed=0, gate_policy=None,
    spec=SPEC,
):
    journal = journal if journal is not None else ReservationJournal()
    scenario = build_scenario(spec, journal=journal)
    gate = None
    if gate_policy is not None:
        gate = AdmissionGate(scenario.loop, policy=gate_policy, seed=seed)
    service = NegotiationService(
        scenario.manager,
        scenario.loop,
        policy=policy or ServicePolicy(hold_s=10.0),
        gate=gate,
        scheduler_seed=scheduler_seed,
        seed=seed,
    )
    return scenario, service, journal


def submit_burst(scenario, service, count, spacing_s=0.5):
    profile = ProfileManager().get("balanced")
    clients = list(scenario.clients.values())
    documents = scenario.document_ids()
    for index in range(count):
        scenario.loop.at(
            index * spacing_s,
            lambda i=index: service.submit(
                documents[i % len(documents)],
                profile,
                clients[i % len(clients)],
                label=f"n-{i + 1}",
            ),
            label=f"submit-{index + 1}",
        )


def assert_leak_free(scenario, journal):
    assert reconcile_journal(journal)["balanced"]
    assert sum(
        s.stream_count for s in scenario.servers.values()
    ) == 0
    assert scenario.transport.flow_count == 0
    assert scenario.topology.total_reserved_bps() == 0.0


class TestEndToEnd:
    def test_every_request_gets_exactly_one_verdict(self):
        scenario, service, journal = build_service()
        submit_burst(scenario, service, 10)
        scenario.loop.run()
        assert service.unfinished() == []
        assert service.inflight == 0
        assert len(service.requests) == 10
        assert all(r.result is not None for r in service.requests)
        assert service.stats.delivered == 10
        assert_leak_free(scenario, journal)

    def test_statuses_are_real_negotiation_verdicts(self):
        scenario, service, journal = build_service()
        submit_burst(scenario, service, 8)
        scenario.loop.run()
        statuses = {r.status for r in service.requests}
        assert statuses <= set(NegotiationStatus)
        assert NegotiationStatus.SUCCEEDED in statuses

    def test_holders_are_unique_per_negotiation(self):
        scenario, service, journal = build_service()
        submit_burst(scenario, service, 10, spacing_s=0.01)
        scenario.loop.run()
        reserved = [
            record.holder
            for record in journal.records()
            if record.record_type is JournalRecordType.RESERVED
        ]
        assert len(reserved) == len(set(reserved))


class TestDeterminism:
    def outcome_trace(self, scheduler_seed, seed=0):
        scenario, service, journal = build_service(
            scheduler_seed=scheduler_seed, seed=seed
        )
        submit_burst(scenario, service, 10, spacing_s=0.05)
        scenario.loop.run()
        return [
            (r.label, str(r.status), r.finished_at)
            for r in service.requests
        ]

    def test_same_seeds_byte_identical_outcomes(self):
        assert self.outcome_trace(3) == self.outcome_trace(3)

    def test_scheduler_seed_changes_interleaving_not_honesty(self):
        for scheduler_seed in range(4):
            scenario, service, journal = build_service(
                scheduler_seed=scheduler_seed
            )
            submit_burst(scenario, service, 10, spacing_s=0.05)
            scenario.loop.run()
            assert service.unfinished() == []
            assert_leak_free(scenario, journal)


class TestPolicy:
    @pytest.mark.parametrize("max_offers", [0, -3])
    def test_max_offers_below_one_is_rejected(self, max_offers):
        # The same rule, through the same check, as negotiate(max_offers=).
        with pytest.raises(ValidationError, match="max_offers"):
            ServicePolicy(max_offers=max_offers)


class TestDeadlineBudget:
    def test_overrun_returns_honest_failedtrylater(self):
        policy = ServicePolicy(
            deadline_budget_s=0.004, plan_s=0.005, hold_s=5.0
        )
        scenario, service, journal = build_service(policy=policy)
        submit_burst(scenario, service, 4)
        scenario.loop.run()
        assert service.stats.overruns == 4
        for request in service.requests:
            assert request.overrun
            assert request.status is NegotiationStatus.FAILED_TRY_LATER
            assert request.result.retry_after_s is not None
            assert request.result.retry_after_s > 0.0
        assert_leak_free(scenario, journal)

    def test_mid_walk_overrun_rolls_back_via_abandonment(self):
        """A budget that expires inside the step-5 walk closes the
        generator: the partial reservation is rolled back and the
        journal shows INTENT -> RELEASED(abandoned)."""
        policy = ServicePolicy(
            deadline_budget_s=0.012,
            plan_s=0.005,
            reservation_step_s=0.01,
            hold_s=5.0,
        )
        scenario, service, journal = build_service(policy=policy)
        submit_burst(scenario, service, 3)
        scenario.loop.run()
        assert service.stats.overruns == 3
        reasons = {
            record.payload.get("reason")
            for record in journal.records()
            if record.record_type is JournalRecordType.RELEASED
        }
        assert reasons == {"abandoned"}
        assert_leak_free(scenario, journal)


class TestStepSixRaces:
    def test_slow_users_expire_and_nothing_leaks(self):
        policy = ServicePolicy(slow_user_fraction=1.0, hold_s=10.0)
        scenario, service, journal = build_service(policy=policy)
        submit_burst(scenario, service, 6)
        scenario.loop.run()
        assert service.stats.expiries > 0
        assert service.stats.confirmations == 0
        expired = [
            r for r in journal.records()
            if r.record_type is JournalRecordType.EXPIRED
        ]
        assert len(expired) == service.stats.expiries
        assert_leak_free(scenario, journal)

    def test_rejecting_users_release_without_confirming(self):
        policy = ServicePolicy(reject_fraction=1.0, hold_s=10.0)
        scenario, service, journal = build_service(policy=policy)
        submit_burst(scenario, service, 6)
        scenario.loop.run()
        assert service.stats.confirmations == 0
        assert service.stats.rejections > 0
        assert_leak_free(scenario, journal)

    def test_confirmed_sessions_hold_then_release(self):
        policy = ServicePolicy(
            slow_user_fraction=0.0, reject_fraction=0.0, hold_s=10.0,
            confirm_jitter=0.0,
        )
        scenario, service, journal = build_service(policy=policy)
        submit_burst(scenario, service, 4)
        scenario.loop.run()
        assert service.stats.confirmations > 0
        assert service.stats.releases == service.stats.confirmations
        assert_leak_free(scenario, journal)


class TestGateIntegration:
    def test_shed_requests_still_get_hinted_verdicts(self):
        gate_policy = GatePolicy(
            rate_per_s=0.5, burst=1, queue_limit=0, retry_limit=0,
        )
        scenario, service, journal = build_service(gate_policy=gate_policy)
        submit_burst(scenario, service, 8, spacing_s=0.01)
        scenario.loop.run()
        assert service.unfinished() == []
        shed = [
            r for r in service.requests
            if r.status is NegotiationStatus.FAILED_TRY_LATER
        ]
        assert shed, "the tight gate shed nothing"
        for request in shed:
            assert request.result.retry_after_s is not None
            assert request.result.retry_after_s > 0.0
        assert_leak_free(scenario, journal)

    def test_gate_backpressure_preserves_single_verdict_per_request(self):
        gate_policy = GatePolicy(rate_per_s=2.0, burst=2, queue_limit=8)
        scenario, service, journal = build_service(gate_policy=gate_policy)
        submit_burst(scenario, service, 12, spacing_s=0.05)
        scenario.loop.run()
        assert service.stats.delivered == 12
        assert service.inflight == 0
        assert_leak_free(scenario, journal)
