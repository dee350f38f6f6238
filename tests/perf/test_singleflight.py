"""One cold key, one miss: the shared cache under a same-tick burst.

Steps 1–4 never suspend inside a build, so get-or-build is enough for N
simultaneous requests at one cold hot-document key to cost exactly one
miss and one build.
"""

import pytest

from repro.client.machine import ClientMachine
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.documents.builder import make_news_article
from repro.perf.cache import (
    SPACES,
    NegotiationCache,
    reset_shared_cache,
    shared_cache,
)
from repro.sim import ScenarioSpec, build_scenario
from repro.util.errors import ValidationError


@pytest.fixture
def space():
    return build_offer_space(
        make_news_article("doc.warm"),
        ClientMachine("c1"),
        default_cost_model(),
    )


class TestLookup:
    def test_failed_build_leaves_no_entry_and_one_miss(self, space):
        cache = NegotiationCache()

        def explode():
            raise ValidationError("build failed")

        with pytest.raises(ValidationError):
            cache.offer_space(("k",), explode)
        assert cache.entry_counts == {SPACES: 0}
        assert cache.stats.misses[SPACES] == 1
        assert cache.stats.hits[SPACES] == 0
        # The retry is a second honest miss, and this one is stored.
        assert cache.offer_space(("k",), lambda: space) is space
        assert cache.stats.misses[SPACES] == 2
        assert cache.entry_counts == {SPACES: 1}


class TestConcurrentColdKey:
    def test_n_tasks_one_cold_key_one_miss(self, space):
        cache = NegotiationCache()
        builds = []

        def build():
            builds.append(len(builds))
            return space

        served = [cache.offer_space(("hot-key",), build) for _ in range(8)]
        assert builds == [0]
        assert all(each is space for each in served)
        assert cache.stats.misses[SPACES] == 1
        assert cache.stats.hits[SPACES] == 7


class TestSharedAccessor:
    def test_shared_cache_is_a_singleton(self):
        reset_shared_cache()
        try:
            first = shared_cache()
            assert shared_cache() is first
        finally:
            reset_shared_cache()

    def test_reset_returns_the_old_instance(self, space):
        reset_shared_cache()
        try:
            cache = shared_cache()
            cache.offer_space(("warm",), lambda: space)
            old = reset_shared_cache()
            assert old is cache
            assert old.stats.misses[SPACES] == 1
            assert shared_cache() is not cache
        finally:
            reset_shared_cache()


class TestServiceBurst:
    def test_burst_of_equivalent_requests_costs_one_miss(self):
        """End to end through the concurrent service: a same-tick burst
        of capability-equivalent requests against a cold shared cache
        misses the space store exactly once."""
        from repro.core import ProfileManager
        from repro.service import NegotiationService, ServicePolicy

        scenario = build_scenario(
            ScenarioSpec(server_count=2, client_count=3, document_count=1),
            telemetry_seed=0,
        )
        service = NegotiationService(
            scenario.manager,
            scenario.loop,
            policy=ServicePolicy(hold_s=1.0),
        )
        profile = ProfileManager().get("balanced")
        clients = list(scenario.clients.values())
        document_id = scenario.document_ids()[0]
        for index in range(6):
            service.submit(
                document_id,
                profile,
                clients[index % len(clients)],
                label=f"n-{index}",
            )
        scenario.loop.run()
        assert service.unfinished() == []
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("cache.misses", store="spaces") == 1
