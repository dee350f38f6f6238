"""Negotiation cache: hits/misses/evictions, invalidation, telemetry."""

import pytest

from repro.client.machine import ClientMachine
from repro.core import make_profile
from repro.core.status import NegotiationStatus
from repro.documents.builder import make_news_article
from repro.documents.media import ColorMode
from repro.documents.quality import VideoQoS
from repro.perf import NegotiationCache, client_fingerprint
from repro.perf.cache import SPACES
from repro.sim import ScenarioSpec, build_scenario


@pytest.fixture
def scenario():
    return build_scenario(
        ScenarioSpec(document_count=2),
        telemetry_seed=0,
    )


def _negotiate(scenario, document_id=None, profile_name="balanced"):
    from repro.core import ProfileManager

    result = scenario.manager.negotiate(
        document_id or scenario.document_ids()[0],
        ProfileManager().get(profile_name),
        scenario.any_client(),
    )
    if result.commitment is not None:
        result.commitment.release()
    return result


class TestCacheCounting:
    def test_first_request_misses_then_hits(self, scenario):
        cache = scenario.manager.cache
        _negotiate(scenario)
        assert cache.stats.misses[SPACES] == 1
        _negotiate(scenario)
        _negotiate(scenario)
        assert cache.stats.hits[SPACES] == 2
        assert cache.stats.misses[SPACES] == 1

    def test_profile_change_hits_the_space(self, scenario):
        _negotiate(scenario, profile_name="balanced")
        _negotiate(scenario, profile_name="premium")
        cache = scenario.manager.cache
        assert cache.stats.hits[SPACES] == 1
        assert cache.stats.misses[SPACES] == 1

    def test_stats_keep_the_retired_store_name(self, scenario):
        # benchmarks/e2e/harness.py still indexes the classification
        # store's counters; they stay present and at 0.
        _negotiate(scenario)
        for counters in scenario.manager.cache.stats.as_dict().values():
            assert counters["classifications"] == 0

    def test_telemetry_counters_emitted(self, scenario):
        _negotiate(scenario)
        _negotiate(scenario)
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("cache.misses", store=SPACES) == 1
        assert metrics.counter_value("cache.hits", store=SPACES) == 1

    def test_outcome_identical_to_uncached(self, scenario):
        cold = build_scenario(ScenarioSpec(document_count=2))
        cached = _negotiate(scenario)
        plain = _negotiate(cold)
        assert cached.status is plain.status is NegotiationStatus.SUCCEEDED
        assert (
            cached.chosen.offer.offer_id == plain.chosen.offer.offer_id
        )


class TestInvalidation:
    def test_catalog_change_bumps_version_and_misses(self, scenario):
        document_id = scenario.document_ids()[0]
        _negotiate(scenario, document_id)
        _negotiate(scenario, document_id)
        database = scenario.database
        before = database.version_of(document_id)
        victim = database.variants_for_monomedia(f"{document_id}.video")[0]
        database.remove_variant(victim.variant_id)
        assert database.version_of(document_id) == before + 1
        _negotiate(scenario, document_id)
        cache = scenario.manager.cache
        # The stale entry is unreachable: the new version is a fresh key.
        assert cache.stats.misses[SPACES] == 2
        assert cache.stats.hits[SPACES] == 1

    def test_invalidate_document_drops_the_space(self, scenario):
        document_id = scenario.document_ids()[0]
        _negotiate(scenario, document_id)
        cache = scenario.manager.cache
        assert cache.entry_counts == {SPACES: 1}
        cache.invalidate_document(document_id)
        assert cache.entry_counts == {SPACES: 0}
        _negotiate(scenario, document_id)
        assert cache.stats.misses[SPACES] == 2

    def test_other_documents_survive_invalidation(self, scenario):
        first, second = scenario.document_ids()[:2]
        _negotiate(scenario, first)
        _negotiate(scenario, second)
        scenario.manager.cache.invalidate_document(first)
        _negotiate(scenario, second)
        assert scenario.manager.cache.stats.hits[SPACES] == 1


class TestEviction:
    @pytest.fixture
    def space(self):
        from repro.core.cost import default_cost_model
        from repro.core.enumeration import build_offer_space

        return build_offer_space(
            make_news_article("doc.evict"),
            ClientMachine("c1"),
            default_cost_model(),
        )

    def test_lru_eviction_counts(self, space):
        cache = NegotiationCache(max_spaces=2)
        for key in ("a", "b", "c"):
            cache.offer_space((key,), lambda: space)
        assert cache.entry_counts[SPACES] == 2
        assert cache.stats.evictions[SPACES] == 1
        # "a" was evicted; "c" is still resident.
        cache.offer_space(("c",), lambda: space)
        assert cache.stats.hits[SPACES] == 1
        cache.offer_space(("a",), lambda: space)
        assert cache.stats.misses[SPACES] == 4

    def test_clear_resets_entries(self, space):
        cache = NegotiationCache()
        cache.offer_space(("k",), lambda: space)
        cache.clear()
        assert cache.entry_counts == {SPACES: 0}


class TestFlushAccounting:
    """Explicit flushes are not capacity pressure: ``clear()`` counts
    under ``cache.flushes``, never ``cache.evictions`` — the SLO layer
    reads the eviction-rate series as a pressure signal and a shutdown
    or test flush must not pollute it."""

    @pytest.fixture
    def warm_cache(self, scenario):
        _negotiate(scenario)
        return scenario.manager.cache

    def test_clear_counts_flushes_not_evictions(self, warm_cache):
        warm_cache.clear()
        assert warm_cache.stats.flushes[SPACES] == 1
        assert warm_cache.stats.evictions[SPACES] == 0

    def test_flush_telemetry_series_are_separate(self, scenario, warm_cache):
        warm_cache.clear()
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("cache.flushes", store=SPACES) == 1
        assert metrics.counter_value("cache.evictions", store=SPACES) == 0

    def test_empty_clear_counts_nothing(self, warm_cache):
        warm_cache.clear()
        warm_cache.clear()
        assert warm_cache.stats.flushes[SPACES] == 1


class TestFingerprints:
    def test_client_identity_excluded(self):
        first = ClientMachine("alice", access_point="net-1")
        second = ClientMachine("bob", access_point="net-2")
        assert client_fingerprint(first) == client_fingerprint(second)

    def test_capability_changes_key(self):
        base = ClientMachine("alice")
        grey = ClientMachine(
            "alice", screen_color=ColorMode.BLACK_AND_WHITE
        )
        assert client_fingerprint(base) != client_fingerprint(grey)

    def test_variant_filter_bypasses_cache(self):
        # Preferences that filter variants change the offer space in
        # ways the key does not capture; the manager must not cache.
        from dataclasses import replace

        from repro.core import ProfileManager
        from repro.core.preferences import (
            SecurityLevel,
            ServerAttributes,
            ServerDirectory,
            UserPreferences,
        )

        scenario = build_scenario(ScenarioSpec(document_count=1))
        scenario.manager.directory = ServerDirectory(
            {
                server_id: ServerAttributes(
                    security=SecurityLevel.CONFIDENTIAL
                )
                for server_id in scenario.servers
            }
        )
        profile = replace(
            ProfileManager().get("balanced"),
            preferences=UserPreferences(
                min_security=SecurityLevel.CONFIDENTIAL
            ),
        )
        result = scenario.manager.negotiate(
            scenario.document_ids()[0], profile, scenario.any_client()
        )
        if result.commitment is not None:
            result.commitment.release()
        cache = scenario.manager.cache
        assert cache.entry_counts == {SPACES: 0}

