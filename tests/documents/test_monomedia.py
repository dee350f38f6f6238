"""Monomedia, variants, block statistics (paper §2/§6)."""

import pytest

from repro.documents.media import Codecs, ColorMode, Medium
from repro.documents.monomedia import BlockStats, Monomedia, Variant
from repro.documents.quality import TextQoS, VideoQoS
from repro.util.errors import ValidationError, VariantError

TV = VideoQoS(color=ColorMode.COLOR, frame_rate=25, resolution=720)
STATS = BlockStats(max_block_bits=300_000, avg_block_bits=100_000,
                   blocks_per_second=25.0)


def make_variant(variant_id="v1", monomedia_id="m1", server="server-a",
                 codec=Codecs.MPEG1, qos=TV):
    return Variant(
        variant_id=variant_id,
        monomedia_id=monomedia_id,
        codec=codec,
        qos=qos,
        size_bits=1e9,
        block_stats=STATS,
        server_id=server,
        duration_s=120.0,
    )


class TestBlockStats:
    def test_burstiness(self):
        assert STATS.burstiness == pytest.approx(3.0)

    def test_avg_above_max_rejected(self):
        with pytest.raises(ValidationError):
            BlockStats(max_block_bits=10, avg_block_bits=20)

    def test_scaled(self):
        half = STATS.scaled(0.5)
        assert half.avg_block_bits == 50_000
        assert half.blocks_per_second == 25.0

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            STATS.scaled(0)

    def test_zero_block_rate_for_discrete(self):
        stats = BlockStats(max_block_bits=100, avg_block_bits=100)
        assert stats.blocks_per_second == 0.0


class TestVariant:
    def test_medium_from_codec(self):
        assert make_variant().medium is Medium.VIDEO

    def test_qos_medium_mismatch_rejected(self):
        with pytest.raises(VariantError):
            make_variant(qos=TextQoS(language="en"))

    def test_codec_must_be_codec(self):
        with pytest.raises(VariantError):
            make_variant(codec="MPEG-1")

    def test_positive_size_required(self):
        with pytest.raises(ValidationError):
            Variant(
                variant_id="v", monomedia_id="m", codec=Codecs.MPEG1,
                qos=TV, size_bits=0, block_stats=STATS,
                server_id="s", duration_s=1.0,
            )


class TestMonomedia:
    def test_holds_variants(self):
        mono = Monomedia("m1", Medium.VIDEO, "clip", 120.0,
                         variants=(make_variant(),))
        assert len(mono.variants) == 1
        assert mono.variant("v1").variant_id == "v1"

    def test_unknown_variant_lookup(self):
        mono = Monomedia("m1", Medium.VIDEO, "clip", 120.0)
        with pytest.raises(VariantError):
            mono.variant("nope")

    def test_foreign_variant_rejected(self):
        with pytest.raises(VariantError):
            Monomedia("m1", Medium.VIDEO, "clip", 120.0,
                      variants=(make_variant(monomedia_id="other"),))

    def test_wrong_medium_variant_rejected(self):
        with pytest.raises(VariantError):
            Monomedia("m1", Medium.AUDIO, "clip", 120.0,
                      variants=(make_variant(),))

    def test_duplicate_variant_ids_rejected(self):
        with pytest.raises(VariantError):
            Monomedia(
                "m1", Medium.VIDEO, "clip", 120.0,
                variants=(make_variant(), make_variant()),
            )

    def test_medium_parsed_from_string(self):
        mono = Monomedia("m1", "video", "clip", 120.0)
        assert mono.medium is Medium.VIDEO
