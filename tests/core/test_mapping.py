"""QoS mapping: the §6 bitrate formulas and presets."""

import pytest

from repro.core.mapping import QoSMapper
from repro.documents.media import AudioGrade, Codecs, ColorMode, Language
from repro.documents.monomedia import BlockStats, Variant
from repro.documents.quality import AudioQoS, ImageQoS, VideoQoS
from repro.util.errors import ValidationError

VIDEO_STATS = BlockStats(
    max_block_bits=300_000, avg_block_bits=100_000, blocks_per_second=25.0
)


def video_variant(stats=VIDEO_STATS):
    return Variant(
        variant_id="v1",
        monomedia_id="m1",
        codec=Codecs.MPEG1,
        qos=VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720),
        size_bits=3e8,
        block_stats=stats,
        server_id="s",
        duration_s=120.0,
    )


def image_variant(size_bits=4_000_000.0):
    return Variant(
        variant_id="i1",
        monomedia_id="m2",
        codec=Codecs.JPEG,
        qos=ImageQoS(color=ColorMode.COLOR, resolution=720),
        size_bits=size_bits,
        block_stats=BlockStats(size_bits, size_bits, 0.0),
        server_id="s",
        duration_s=120.0,
    )


class TestSection6Formulas:
    def test_video_max_bitrate(self):
        # maxBitRate = (maximum frame length) x (frame rate)
        spec = QoSMapper().flow_spec(video_variant())
        assert spec.max_bit_rate == pytest.approx(300_000 * 25)

    def test_video_avg_bitrate(self):
        # avgBitRate = (average frame length) x (frame rate)
        spec = QoSMapper().flow_spec(video_variant())
        assert spec.avg_bit_rate == pytest.approx(100_000 * 25)

    def test_audio_formula(self):
        stats = BlockStats(max_block_bits=4_000, avg_block_bits=3_000,
                           blocks_per_second=50.0)
        variant = Variant(
            variant_id="a1",
            monomedia_id="m3",
            codec=Codecs.MPEG_AUDIO,
            qos=AudioQoS(grade=AudioGrade.CD, language=Language.ENGLISH),
            size_bits=1e7,
            block_stats=stats,
            server_id="s",
            duration_s=120.0,
        )
        spec = QoSMapper().flow_spec(variant)
        assert spec.max_bit_rate == pytest.approx(4_000 * 50)
        assert spec.avg_bit_rate == pytest.approx(3_000 * 50)

    def test_video_presets(self):
        # §6: video jitter 10 ms, loss rate 0.003.
        spec = QoSMapper().flow_spec(video_variant())
        assert spec.max_jitter_s == pytest.approx(0.010)
        assert spec.max_loss_rate == pytest.approx(0.003)

    def test_monotone_in_frame_rate(self):
        slow = BlockStats(300_000, 100_000, 10.0)
        fast = BlockStats(300_000, 100_000, 30.0)
        mapper = QoSMapper()
        assert (
            mapper.continuous_rates(fast)[0] > mapper.continuous_rates(slow)[0]
        )


class TestDiscreteMapping:
    def test_rate_from_window(self):
        spec = QoSMapper(discrete_window_s=2.0).flow_spec(image_variant(4e6))
        assert spec.max_bit_rate == pytest.approx(2e6)
        assert spec.avg_bit_rate == pytest.approx(2e6)

    def test_shorter_window_needs_more_rate(self):
        fast = QoSMapper(discrete_window_s=1.0).flow_spec(image_variant())
        slow = QoSMapper(discrete_window_s=4.0).flow_spec(image_variant())
        assert fast.max_bit_rate == pytest.approx(4 * slow.max_bit_rate)


class TestMapperConfig:
    def test_rate_scale(self):
        base = QoSMapper().flow_spec(video_variant())
        scaled = QoSMapper(rate_scale=2.0).flow_spec(video_variant())
        assert scaled.max_bit_rate == pytest.approx(2 * base.max_bit_rate)

    def test_zero_block_rate_rejected_for_continuous(self):
        bad = video_variant(stats=BlockStats(1e5, 1e5, 0.0))
        with pytest.raises(ValidationError):
            QoSMapper().flow_spec(bad)
