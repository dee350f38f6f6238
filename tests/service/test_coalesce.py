"""Same-tick plan coalescing in the concurrent service.

A burst of capability-equivalent requests landing between two scheduler
ticks shares one steps-1–4 plan.  Sharing must be invisible in the
outcomes — byte-identical traces with ``coalesce=False`` — and visible
only in the work: ``batch.coalesced`` counts and fewer plan builds.
A class key is computed only for a tick that holds a second plan, so
a service whose plans never share a tick keys nothing.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import repro.batch.classes
from repro.core import ProfileManager
from repro.core.preferences import UserPreferences
from repro.service import NegotiationService, ServicePolicy
from repro.sim import ScenarioSpec, build_scenario
from tests.properties.test_property_stream_work import CandidateCounter

SPEC = ScenarioSpec(server_count=2, client_count=3, document_count=2)


def build_service(coalesce, scheduler_seed=0, telemetry_seed=None):
    scenario = build_scenario(SPEC, telemetry_seed=telemetry_seed)
    service = NegotiationService(
        scenario.manager,
        scenario.loop,
        policy=ServicePolicy(hold_s=5.0),
        scheduler_seed=scheduler_seed,
        coalesce=coalesce,
    )
    return scenario, service


def submit_burst(scenario, service, count, profile=None, spacing_s=0.0):
    profile = profile or ProfileManager().get("balanced")
    clients = list(scenario.clients.values())
    documents = scenario.document_ids()
    for index in range(count):
        scenario.loop.at(
            index * spacing_s,
            lambda i=index: service.submit(
                documents[i % len(documents)],
                profile,
                clients[i % len(clients)],
                label=f"n-{i}",
            ),
        )


@contextmanager
def counted_class_keys():
    """``request_class_key`` calls, counted in ``calls[0]``."""
    calls = [0]
    request_class_key = repro.batch.classes.request_class_key

    def counting(manager, request):
        calls[0] += 1
        return request_class_key(manager, request)

    with mock.patch.object(
        repro.batch.classes, "request_class_key", counting
    ):
        yield calls


def outcome_trace(coalesce, scheduler_seed=0, spacing_s=0.0):
    scenario, service = build_service(coalesce, scheduler_seed)
    submit_burst(scenario, service, 8, spacing_s=spacing_s)
    scenario.loop.run()
    return [
        (r.label, str(r.status), r.finished_at) for r in service.requests
    ]


class TestEquivalence:
    def test_coalescing_changes_no_outcome(self):
        for scheduler_seed in range(3):
            assert outcome_trace(True, scheduler_seed) == outcome_trace(
                False, scheduler_seed
            )

    def test_spread_out_requests_also_agree(self):
        assert outcome_trace(True, spacing_s=0.5) == outcome_trace(
            False, spacing_s=0.5
        )


class TestCoalescing:
    def test_same_tick_burst_shares_one_plan(self):
        scenario, service = build_service(True, telemetry_seed=0)
        submit_burst(scenario, service, 6, spacing_s=0.0)
        scenario.loop.run()
        metrics = scenario.telemetry.metrics
        # Two documents → two classes; 6 requests → 4 coalesced plans.
        assert metrics.counter_value("batch.coalesced", site="service") == 4

    def test_coalesce_off_never_counts(self):
        scenario, service = build_service(False, telemetry_seed=0)
        submit_burst(scenario, service, 6, spacing_s=0.0)
        scenario.loop.run()
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("batch.coalesced", site="service") == 0

    def test_memo_does_not_leak_across_ticks(self):
        scenario, service = build_service(True, telemetry_seed=0)
        # Far enough apart that every request plans at its own tick.
        submit_burst(scenario, service, 4, spacing_s=10.0)
        scenario.loop.run()
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("batch.coalesced", site="service") == 0
        assert len(service._plan_memo) <= 1

    def test_preference_requests_plan_privately(self):
        scenario, service = build_service(True, telemetry_seed=0)
        profile = replace(
            ProfileManager().get("balanced"),
            preferences=UserPreferences(server_preference={"server-a": 1.0}),
        )
        submit_burst(scenario, service, 4, profile=profile, spacing_s=0.0)
        scenario.loop.run()
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("batch.coalesced", site="service") == 0
        assert all(r.result is not None for r in service.requests)


class TestLazyKey:
    """Class keys counted, not timed."""

    def test_a_plan_alone_on_its_tick_is_never_keyed(self):
        scenario, service = build_service(True)
        submit_burst(scenario, service, 4, spacing_s=10.0)
        with counted_class_keys() as calls:
            scenario.loop.run()
        assert all(r.result is not None for r in service.requests)
        assert calls[0] == 0

    def test_a_shared_tick_keys_every_plan_once(self):
        scenario, service = build_service(True, telemetry_seed=0)
        submit_burst(scenario, service, 6, spacing_s=0.0)
        with counted_class_keys() as calls:
            scenario.loop.run()
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("batch.coalesced", site="service") == 4
        # The held first plan is keyed when the second lands, then each
        # plan after it: six keys for six plans, never more.
        assert calls[0] == 6

    def plan_twice(self, between=None):
        scenario, service = build_service(True, telemetry_seed=0)
        profile = ProfileManager().get("balanced")
        document = scenario.document_ids()[0]
        first, second = list(scenario.clients.values())[:2]
        with counted_class_keys() as calls:
            service._plan_coalesced(document, profile, first)
            if between is not None:
                between(scenario, document)
            service._plan_coalesced(document, profile, second)
        shared = scenario.telemetry.metrics.counter_value(
            "batch.coalesced", site="service"
        )
        return shared, calls[0]

    def test_same_tick_twins_share(self):
        assert self.plan_twice() == (1, 2)

    def test_a_document_version_bump_between_them_shares_nothing(self):
        def bump(scenario, document):
            variant = next(scenario.catalog.get(document).iter_variants())
            scenario.database.add_variant(
                replace(variant, variant_id=f"{variant.variant_id}.replica")
            )

        # The held plan is dropped unkeyed; only the second is keyed.
        assert self.plan_twice(bump) == (0, 1)


class TestSharedStream:
    """Same-tick members replay one memoised order, coalesced or not."""

    MEMBERS = 4

    def run(self, coalesce, members):
        scenario = build_scenario(
            ScenarioSpec(server_count=2, client_count=3, document_count=1)
        )
        service = NegotiationService(
            scenario.manager,
            scenario.loop,
            policy=ServicePolicy(hold_s=5.0),
            coalesce=coalesce,
        )
        submit_burst(scenario, service, members)
        with CandidateCounter() as counter:
            scenario.loop.run()
        outcomes = [
            (
                r.label,
                str(r.status),
                r.result.chosen.offer.offer_id,
                r.result.attempts,
                r.finished_at,
            )
            for r in service.requests
        ]
        return counter.calls, outcomes

    def test_same_tick_members_classify_each_offer_once(self):
        alone, _ = self.run(True, 1)
        shared, shared_outcomes = self.run(True, self.MEMBERS)
        private, private_outcomes = self.run(False, self.MEMBERS)
        assert alone > 0
        # Every member commits the head offer.  Shared plans replay one
        # cursor's order; private plans look the same order up in the
        # cached space's memo.  Either way N members compute what one
        # member computes.
        assert private == shared == alone
        assert shared_outcomes == private_outcomes
