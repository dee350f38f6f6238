"""Document/monomedia builders and the media-rate model."""

import pytest

from repro.documents.builder import (
    DEFAULT_RATE_MODEL,
    DocumentBuilder,
    MonomediaBuilder,
    make_news_article,
)
from repro.documents.media import AudioGrade, Codecs, ColorMode
from repro.documents.quality import AudioQoS, VideoQoS
from repro.documents.synchronization import ScreenRegion
from repro.util.errors import DocumentError

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)


class TestMediaRateModel:
    def test_video_rates_scale_with_frame_rate(self):
        fast = DEFAULT_RATE_MODEL.video_block_stats(Codecs.MPEG1, TV)
        slow = DEFAULT_RATE_MODEL.video_block_stats(
            Codecs.MPEG1,
            VideoQoS(color=ColorMode.COLOR, frame_rate=5, resolution=720),
        )
        # Per-block size identical; block rate differs.
        assert fast.avg_block_bits == slow.avg_block_bits
        assert fast.blocks_per_second == 25 and slow.blocks_per_second == 5

    def test_color_cheaper_than_supercolor(self):
        color = DEFAULT_RATE_MODEL.video_block_stats(Codecs.MPEG1, TV)
        grey = DEFAULT_RATE_MODEL.video_block_stats(
            Codecs.MPEG1,
            VideoQoS(color=ColorMode.GREY, frame_rate=25, resolution=720),
        )
        assert grey.avg_block_bits < color.avg_block_bits

    def test_mjpeg_less_compressed_than_mpeg(self):
        mpeg = DEFAULT_RATE_MODEL.video_block_stats(Codecs.MPEG1, TV)
        mjpeg = DEFAULT_RATE_MODEL.video_block_stats(Codecs.MJPEG, TV)
        assert mjpeg.avg_block_bits > mpeg.avg_block_bits
        assert mjpeg.burstiness < mpeg.burstiness

    def test_audio_rates(self):
        cd = DEFAULT_RATE_MODEL.audio_block_stats(
            Codecs.MPEG_AUDIO, AudioQoS(grade=AudioGrade.CD)
        )
        phone = DEFAULT_RATE_MODEL.audio_block_stats(
            Codecs.MPEG_AUDIO, AudioQoS(grade=AudioGrade.TELEPHONE)
        )
        assert cd.avg_block_bits > phone.avg_block_bits

    def test_unknown_codec_rejected(self):
        with pytest.raises(DocumentError):
            DEFAULT_RATE_MODEL.video_block_stats(Codecs.JPEG, TV)


class TestMonomediaBuilder:
    def test_derives_sizes(self):
        mono = (
            MonomediaBuilder("m", "video", "clip", 60.0)
            .add_variant(Codecs.MPEG1, TV, "server-a")
            .build()
        )
        variant = mono.variants[0]
        stats = variant.block_stats
        expected = stats.avg_block_bits * stats.blocks_per_second * 60.0
        assert variant.size_bits == pytest.approx(expected)

    def test_sequential_ids(self):
        mono = (
            MonomediaBuilder("m", "video", "clip", 60.0)
            .add_variant(Codecs.MPEG1, TV, "s1")
            .add_variant(Codecs.MJPEG, TV, "s2")
            .build()
        )
        assert [v.variant_id for v in mono.variants] == ["m.v1", "m.v2"]


class TestDocumentBuilder:
    def test_fluent_assembly(self):
        doc = (
            DocumentBuilder("d", "title")
            .add(
                MonomediaBuilder("d.v", "video", "clip", 60.0)
                .add_variant(Codecs.MPEG1, TV, "s1")
            )
            .copyright(1.25)
            .place("d.v", ScreenRegion(0, 0, 720, 540))
            .build()
        )
        assert doc.copyright_cost.cents == 125
        assert doc.sync.spatial is not None

    def test_temporal_relations(self):
        doc = (
            DocumentBuilder("d", "title")
            .add(
                MonomediaBuilder("d.a", "video", "a", 60.0)
                .add_variant(Codecs.MPEG1, TV, "s1")
            )
            .add(
                MonomediaBuilder("d.b", "video", "b", 30.0)
                .add_variant(Codecs.MPEG1, TV, "s1")
            )
            .overlaps("d.a", "d.b", 60.0)
            .build()
        )
        assert doc.duration_s == pytest.approx(90.0)


class TestMakeNewsArticle:
    def test_default_structure(self):
        doc = make_news_article()
        media = {m.value for m in doc.media}
        assert media == {"video", "audio", "image", "text"}

    def test_variant_grid_size(self):
        doc = make_news_article()
        counts = {c.monomedia_id: len(c.variants) for c in doc.components}
        assert counts[f"{doc.document_id}.video"] == 8  # 2 codecs x 2 colors x 2 rates
        assert counts[f"{doc.document_id}.audio"] == 4  # 2 grades x 2 languages

    def test_servers_round_robin(self):
        doc = make_news_article(video_servers=("s1", "s2"))
        video = doc.component(f"{doc.document_id}.video")
        assert {v.server_id for v in video.variants} == {"s1", "s2"}

    def test_optional_media(self):
        doc = make_news_article(include_image=False, include_text=False)
        assert {m.value for m in doc.media} == {"video", "audio"}

    def test_video_audio_parallel(self):
        doc = make_news_article(duration_s=90.0)
        assert doc.duration_s == pytest.approx(90.0)
