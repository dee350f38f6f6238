"""What a cache key costs, counted — no clock is read.

The space key fingerprints the client and the tariff once per object
version: ``ClientMachine`` memoises its capability digest stamped with
``DecoderBank.version``, ``CostModel`` its tariff digest; a batch class
key's ``ImportanceProfile`` memoises its digest the same way.  These
properties hold the memo to a fresh computation on a rebuilt object,
hold ``install`` to a cache miss and a space equal to an uncached
build, and count the ``digest`` calls a run of negotiations makes.
"""

import sys
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.decoder import Decoder, DecoderBank, ScalableDecoder
from repro.client.machine import ClientMachine
from repro.core import standard_profiles
from repro.core.cost import (
    CostModel,
    CostTable,
    ThroughputClass,
    default_cost_model,
)
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.documents.builder import make_news_article
from repro.documents.media import Codecs, ColorMode
from repro.perf import fingerprint
from repro.perf.cache import SPACES, NegotiationCache
from repro.perf.fingerprint import (
    client_fingerprint,
    cost_model_fingerprint,
    importance_fingerprint,
)

from .strategies import grid_manager, with_override

BALANCED = next(p for p in standard_profiles() if p.name == "balanced")
VIDEO_CODECS = (Codecs.MPEG1, Codecs.MPEG2, Codecs.MJPEG)
OTHER_CODECS = (Codecs.MPEG_AUDIO, Codecs.PCM, Codecs.JPEG, Codecs.HTML)

decoders = st.one_of(
    st.sampled_from([Decoder, ScalableDecoder]).flatmap(
        lambda kind: st.builds(
            kind,
            st.sampled_from(VIDEO_CODECS),
            max_frame_rate=st.sampled_from([10, 15, 25, 30]),
        )
    ),
    st.builds(Decoder, st.sampled_from(OTHER_CODECS)),
)
capabilities = st.fixed_dictionaries(
    {
        "screen_width": st.integers(min_value=320, max_value=1920),
        "screen_color": st.sampled_from(list(ColorMode)),
        "max_frame_rate": st.integers(min_value=1, max_value=60),
        "interface_bps": st.floats(min_value=1e6, max_value=1e9),
    }
)
# A client's life, step by step: install a decoder, or derive a new
# client with ``replace`` (same bank, fresh memo).
lives = st.lists(
    st.one_of(
        st.tuples(st.just("install"), decoders),
        st.tuples(st.just("replace"), capabilities),
    ),
    max_size=8,
)
tariffs = st.lists(
    st.tuples(
        st.floats(min_value=1e3, max_value=1e9), st.floats(0.0, 1.0)
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda row: row[0],
)


def fresh_client_fingerprint(client):
    """The digest of a rebuilt client: a new machine over a new bank
    holding the same decoders in the same order, so no memo exists."""
    rebuilt = replace(client, decoders=DecoderBank(list(client.decoders)))
    assert rebuilt._fingerprint is None
    return client_fingerprint(rebuilt)


def table(rows):
    """A cost table over ``rows``, its rates made non-decreasing."""
    rows = sorted(rows)
    rates = accumulate((rate for _, rate in rows), max)
    return CostTable(
        [ThroughputClass(ceiling, rate) for (ceiling, _), rate in zip(rows, rates)]
    )


class TestMemoIsFresh:
    @given(capabilities, st.lists(decoders, max_size=5), lives)
    @settings(max_examples=80, deadline=None)
    def test_client_memo_equals_a_fresh_computation(self, caps, initial, life):
        client = ClientMachine("c", decoders=DecoderBank(initial), **caps)
        assert client_fingerprint(client) == fresh_client_fingerprint(client)
        for action, argument in life:
            before = client_fingerprint(client)
            if action == "install":
                client.decoders.install(argument)
                assert client_fingerprint(client) != before
            else:
                client = replace(client, **argument)
            assert client_fingerprint(client) == fresh_client_fingerprint(
                client
            )

    @given(tariffs, tariffs, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_cost_model_memo_equals_a_fresh_computation(
        self, network, server, discount, other_discount
    ):
        model = CostModel(table(network), table(server), discount)
        first = cost_model_fingerprint(model)
        assert cost_model_fingerprint(model) == first
        rebuilt = CostModel(table(network), table(server), discount)
        assert cost_model_fingerprint(rebuilt) == first
        changed = replace(model, best_effort_discount=other_discount)
        assert (cost_model_fingerprint(changed) == first) == (
            discount == other_discount
        )


    @given(
        st.lists(
            st.tuples(
                st.sampled_from([
                    "with_cost_per_dollar", "frame_rate", "resolution",
                ]),
                st.integers(min_value=1, max_value=60),
                st.sampled_from([0.0, -0.0, 0.5, 3.0]),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_importance_memo_equals_a_fresh_computation(self, edits):
        importance = default_importance()
        for name, x, value in edits:
            importance = (
                importance.with_cost_per_dollar(value)
                if name == "with_cost_per_dollar"
                else with_override(importance, name, x, value)
            )
        first = importance_fingerprint(importance)
        assert importance._fingerprint == first
        assert importance_fingerprint(importance) == first
        assert first == fingerprint.digest(repr(importance))


class TestInstallMisses:
    DOCUMENT = make_news_article(
        "doc.key-work", video_codecs=VIDEO_CODECS, include_image=False
    )

    @given(st.lists(decoders, max_size=4), decoders)
    @settings(max_examples=40, deadline=None)
    def test_install_after_a_cached_negotiation(self, initial, added):
        manager = grid_manager(
            [self.DOCUMENT], (64, 64, 64), cache=NegotiationCache()
        )
        client = ClientMachine(
            "c", access_point="client-net", decoders=DecoderBank(initial)
        )
        document_id = self.DOCUMENT.document_id
        cold = manager.negotiate(document_id, BALANCED, client)
        if cold.commitment is not None:
            cold.commitment.release()
        assert manager.cache.stats.misses[SPACES] == 1

        client.decoders.install(added)
        space = manager.plan(document_id, BALANCED, client).space

        assert manager.cache.stats.misses[SPACES] == 2
        assert manager.cache.stats.hits[SPACES] == 0
        uncached = build_offer_space(
            self.DOCUMENT, client, manager.cost_model, mapper=manager.mapper
        )
        assert space.axes == uncached.axes
        assert space.rejected == uncached.rejected


class DigestCalls:
    """Counts ``fingerprint.digest`` calls by the fingerprint that made
    them while installed."""

    def __init__(self, monkeypatch):
        self.by_caller = Counter()
        inner = fingerprint.digest

        def counted(payload):
            self.by_caller[sys._getframe(1).f_code.co_name] += 1
            return inner(payload)

        monkeypatch.setattr(fingerprint, "digest", counted)


class TestDigestWork:
    N = 12

    @pytest.fixture
    def manager(self):
        return grid_manager(
            [make_news_article("doc.digest-work")],
            (64, 64, 64),
            cache=NegotiationCache(),
        )

    def negotiate(self, manager, client, times):
        for _ in range(times):
            result = manager.negotiate("doc.digest-work", BALANCED, client)
            if result.commitment is not None:
                result.commitment.release()

    def test_one_digest_per_object_version(self, manager, monkeypatch):
        client = ClientMachine("c", access_point="client-net")
        calls = DigestCalls(monkeypatch)
        self.negotiate(manager, client, self.N)
        assert manager.cache.stats.hits[SPACES] == self.N - 1
        # The mapper is fingerprinted per request on purpose: a plain
        # subclass may carry unfrozen state.
        assert calls.by_caller == Counter(
            client_fingerprint=1,
            cost_model_fingerprint=1,
            mapper_fingerprint=self.N,
        )

        client.decoders.install(Decoder(Codecs.MPEG2))
        manager.cost_model = default_cost_model()
        self.negotiate(manager, client, self.N)
        assert calls.by_caller == Counter(
            client_fingerprint=2,
            cost_model_fingerprint=2,
            mapper_fingerprint=2 * self.N,
        )

    def test_one_importance_digest_per_object(self, monkeypatch):
        importance = default_importance()
        calls = DigestCalls(monkeypatch)
        for _ in range(self.N):
            importance_fingerprint(importance)
        importance_fingerprint(default_importance())
        assert calls.by_caller == Counter(importance_fingerprint=2)
