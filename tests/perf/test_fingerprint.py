"""Fingerprint collision regressions.

``mapper_fingerprint`` used to key on the declared state alone, so a
``QoSMapper`` subclass adding mapping state without overriding
``fingerprint_state()`` collided with its parent (and with differently
configured instances of itself) — two mappers that compute different
flow specs shared cache entries.  The fix keys on the full class
identity plus ``fingerprint_state()``, with a repr fallback for
subclasses that forgot the override.

``client_fingerprint`` used to sort the decoders, but a decoder bank
presents a variant through the *first* installed decoder that fits, so
two clients holding the same decoders in another order shared one
cached space while presenting different QoS.  Decoders now enter in
install order.
"""

from dataclasses import dataclass

import pytest

from repro.client.decoder import Decoder, DecoderBank, ScalableDecoder
from repro.client.machine import ClientMachine
from repro.core.enumeration import build_offer_space
from repro.core.mapping import QoSMapper
from repro.core.negotiation import QoSManager
from repro.documents import make_news_article
from repro.documents.media import Codecs
from repro.metadata import MetadataDatabase
from repro.perf import reset_shared_cache, shared_cache
from repro.perf.cache import SPACES
from repro.perf.fingerprint import client_fingerprint, mapper_fingerprint


@dataclass(frozen=True, slots=True)
class ForgetfulMapper(QoSMapper):
    """Adds mapping state but does NOT override fingerprint_state —
    the shape of the original collision."""

    headroom: float = 1.0


@dataclass(frozen=True, slots=True)
class DiligentMapper(QoSMapper):
    """Adds mapping state and extends the parent's fingerprint."""

    headroom: float = 1.0

    def fingerprint_state(self) -> object:
        # slots=True recreates the class, so zero-arg super() is out.
        return (QoSMapper.fingerprint_state(self), self.headroom)


class TestMapperCollisions:
    def test_subclass_never_collides_with_parent(self):
        base = QoSMapper()
        assert mapper_fingerprint(ForgetfulMapper()) != mapper_fingerprint(base)
        assert mapper_fingerprint(DiligentMapper()) != mapper_fingerprint(base)

    def test_forgotten_override_still_splits_on_state(self):
        """The regression proper: two ForgetfulMapper instances whose
        declared state is identical but whose added state differs must
        not share a fingerprint — the repr fallback folds the extra
        field in."""
        assert mapper_fingerprint(
            ForgetfulMapper(headroom=1.0)
        ) != mapper_fingerprint(ForgetfulMapper(headroom=2.0))

    def test_overriding_subclass_splits_on_state(self):
        assert mapper_fingerprint(
            DiligentMapper(headroom=1.0)
        ) != mapper_fingerprint(DiligentMapper(headroom=2.0))

    def test_structural_equality_shares_entries(self):
        assert mapper_fingerprint(
            DiligentMapper(rate_scale=1.5, headroom=2.0)
        ) == mapper_fingerprint(DiligentMapper(rate_scale=1.5, headroom=2.0))
        assert mapper_fingerprint(QoSMapper()) == mapper_fingerprint(
            QoSMapper()
        )

    def test_same_name_different_module_splits(self):
        """Class identity is module-qualified: a same-named mapper from
        another module never shares entries."""
        namespace = {"__name__": "tests.perf.fake_mapper_module"}
        exec(  # a second, distinct ForgetfulMapper "module"
            "from dataclasses import dataclass\n"
            "from repro.core.mapping import QoSMapper\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class ForgetfulMapper(QoSMapper):\n"
            "    headroom: float = 1.0\n",
            namespace,
        )
        impostor = namespace["ForgetfulMapper"]()
        assert mapper_fingerprint(impostor) != mapper_fingerprint(
            ForgetfulMapper()
        )

    def test_base_mapper_state_splits(self):
        assert mapper_fingerprint(QoSMapper()) != mapper_fingerprint(
            QoSMapper(rate_scale=1.1)
        )


class TestDecoderInstallOrder:
    """A 15 f/s scalable MPEG-2 decoder installed before a full one
    down-scales the 25 f/s variants; installed after it, it is never
    reached."""

    @pytest.fixture
    def document(self):
        return make_news_article(
            "doc.order",
            video_codecs=(Codecs.MPEG2,),
            include_image=False,
            include_text=False,
        )

    @pytest.fixture
    def manager(self, document, transport, servers, clock):
        database = MetadataDatabase()
        database.insert_document(document)
        reset_shared_cache()
        yield QoSManager(
            database=database,
            transport=transport,
            servers=servers,
            clock=clock,
            cache=shared_cache(),
        )
        reset_shared_cache()

    @staticmethod
    def _client(client_id, *video_decoders):
        return ClientMachine(
            client_id,
            decoders=DecoderBank(
                (*video_decoders, Decoder(Codecs.MPEG_AUDIO))
            ),
        )

    def test_reordered_decoders_get_their_own_space(
        self, manager, document, balanced_profile
    ):
        capped = ScalableDecoder(Codecs.MPEG2, max_frame_rate=15)
        full = Decoder(Codecs.MPEG2)
        scaling = self._client("scaling", capped, full)
        direct = self._client("direct", full, capped)
        document_id = document.document_id

        first = manager.negotiate(document_id, balanced_profile, scaling)
        first.commitment.release()
        space = manager.plan(document_id, balanced_profile, direct).space

        assert manager.cache.stats.misses[SPACES] == 2
        uncached = build_offer_space(document, direct, manager.cost_model)
        assert space.presented_axes == uncached.presented_axes
        video = space.presented_axes[
            space.monomedia_ids.index(f"{document_id}.video")
        ]
        assert {qos.frame_rate for qos in video} == {15, 25}
        assert client_fingerprint(scaling) != client_fingerprint(direct)
