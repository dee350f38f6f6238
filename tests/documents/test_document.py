"""Document composition (paper §2, Figure 1)."""

import pytest

from repro.documents.builder import MonomediaBuilder
from repro.documents.document import Document
from repro.documents.media import Codecs, ColorMode, Medium
from repro.documents.monomedia import Monomedia
from repro.documents.quality import VideoQoS
from repro.documents.synchronization import (
    SyncConstraints,
    TemporalRelation,
    TemporalRelationKind,
)
from repro.util.errors import DocumentError
from repro.util.units import dollars

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)


def video_monomedia(mid="m.video", n_variants=2, duration=60.0):
    builder = MonomediaBuilder(mid, "video", "clip", duration)
    for i in range(n_variants):
        builder.add_variant(Codecs.MPEG1, TV, f"server-{i}")
    return builder.build()


def audio_monomedia(mid="m.audio", duration=60.0):
    from repro.documents.media import AudioGrade
    from repro.documents.quality import AudioQoS

    builder = MonomediaBuilder(mid, "audio", "track", duration)
    builder.add_variant(
        Codecs.MPEG_AUDIO, AudioQoS(grade=AudioGrade.CD), "server-0"
    )
    return builder.build()


class TestDocumentShape:
    def test_monomedia_document(self):
        doc = Document("d1", "solo", (video_monomedia(),))
        assert doc.is_monomedia

    def test_multimedia_document(self):
        doc = Document("d1", "duo", (video_monomedia(), audio_monomedia()))
        assert not doc.is_monomedia
        assert doc.media == (Medium.VIDEO, Medium.AUDIO)

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            Document("d1", "none", ())

    def test_duplicate_monomedia_rejected(self):
        with pytest.raises(DocumentError):
            Document("d1", "dup", (video_monomedia(), video_monomedia()))

    def test_component_lookup(self):
        doc = Document("d1", "duo", (video_monomedia(), audio_monomedia()))
        assert doc.component("m.video").medium is Medium.VIDEO
        with pytest.raises(DocumentError):
            doc.component("m.ghost")

    def test_non_monomedia_component_rejected(self):
        with pytest.raises(DocumentError):
            Document("d1", "bad", ("not a monomedia",))


class TestVariantViews:
    def test_variant_counts_and_space(self):
        doc = Document(
            "d1", "duo", (video_monomedia(n_variants=3), audio_monomedia())
        )
        counts = {c.monomedia_id: len(c.variants) for c in doc.components}
        assert counts == {"m.video": 3, "m.audio": 1}

    def test_iter_variants(self):
        doc = Document(
            "d1", "duo", (video_monomedia(n_variants=2), audio_monomedia())
        )
        assert len(list(doc.iter_variants())) == 3


class TestTimingAndCost:
    def test_duration_parallel(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.PARALLEL,
                                 "m.video", "m.audio"),
            )
        )
        doc = Document(
            "d1", "duo",
            (video_monomedia(duration=100.0), audio_monomedia(duration=60.0)),
            sync=sync,
        )
        assert doc.duration_s == pytest.approx(100.0)

    def test_duration_sequential(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.SEQUENTIAL,
                                 "m.video", "m.audio"),
            )
        )
        doc = Document(
            "d1", "duo",
            (video_monomedia(duration=100.0), audio_monomedia(duration=60.0)),
            sync=sync,
        )
        assert doc.duration_s == pytest.approx(160.0)

    def test_copyright_normalised_to_money(self):
        doc = Document(
            "d1", "solo", (video_monomedia(),), copyright_cost=dollars(0.5)
        )
        assert doc.copyright_cost.cents == 50

    def test_sync_referencing_unknown_monomedia_rejected(self):
        sync = SyncConstraints(
            temporal=(
                TemporalRelation(TemporalRelationKind.PARALLEL,
                                 "m.video", "m.ghost"),
            )
        )
        with pytest.raises(Exception):
            Document("d1", "bad", (video_monomedia(),), sync=sync)
