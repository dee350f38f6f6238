"""Decoders and the step-2 compatibility test."""

import pytest

from repro.client.decoder import Decoder, DecoderBank, ScalableDecoder, standard_decoders
from repro.documents.media import Codecs, ColorMode
from repro.documents.monomedia import BlockStats, Variant
from repro.documents.quality import VideoQoS
from repro.util.errors import DecoderError


def video_variant(codec=Codecs.MPEG1, color=ColorMode.COLOR,
                  frame_rate=25, resolution=720):
    return Variant(
        variant_id="v1",
        monomedia_id="m1",
        codec=codec,
        qos=VideoQoS(color=color, frame_rate=frame_rate, resolution=resolution),
        size_bits=1e8,
        block_stats=BlockStats(3e5, 1e5, float(frame_rate)),
        server_id="server-a",
        duration_s=60.0,
    )


class TestDecoder:
    def test_matching_codec_and_limits(self):
        decoder = Decoder(Codecs.MPEG1, max_frame_rate=30)
        assert decoder.can_decode(video_variant())

    def test_wrong_codec_rejected(self):
        decoder = Decoder(Codecs.MPEG1)
        assert not decoder.can_decode(video_variant(codec=Codecs.MJPEG))

    def test_limits_enforced(self):
        decoder = Decoder(Codecs.MPEG1, max_frame_rate=15)
        assert not decoder.can_decode(video_variant(frame_rate=25))
        decoder = Decoder(Codecs.MPEG1, max_resolution=360)
        assert not decoder.can_decode(video_variant(resolution=720))
        decoder = Decoder(Codecs.MPEG1, max_color=ColorMode.GREY)
        assert not decoder.can_decode(video_variant(color=ColorMode.COLOR))

    def test_codec_type_checked(self):
        with pytest.raises(DecoderError):
            Decoder("MPEG-1")


class TestScalableDecoder:
    def test_accepts_above_limits_when_codec_scalable(self):
        decoder = ScalableDecoder(Codecs.MPEG2, max_frame_rate=15)
        assert decoder.can_decode(video_variant(codec=Codecs.MPEG2,
                                                frame_rate=30))

    def test_rejects_above_limits_when_codec_not_scalable(self):
        decoder = ScalableDecoder(Codecs.MPEG1, max_frame_rate=15)
        assert not decoder.can_decode(video_variant(frame_rate=30))

    def test_effective_qos_clamped(self):
        decoder = ScalableDecoder(
            Codecs.MPEG2, max_frame_rate=15, max_resolution=360,
            max_color=ColorMode.GREY,
        )
        variant = video_variant(codec=Codecs.MPEG2, frame_rate=30,
                                resolution=720, color=ColorMode.COLOR)
        effective = decoder.effective_qos(variant)
        assert effective == VideoQoS(color=ColorMode.GREY, frame_rate=15,
                                     resolution=360)

    def test_effective_qos_identity_within_limits(self):
        decoder = ScalableDecoder(Codecs.MPEG2)
        variant = video_variant(codec=Codecs.MPEG2)
        assert decoder.effective_qos(variant) == variant.qos


class TestDecoderBank:
    def test_first_capable_decoder_wins(self):
        limited = Decoder(Codecs.MPEG1, max_frame_rate=10)
        full = Decoder(Codecs.MPEG1)
        bank = DecoderBank((limited, full))
        assert bank.decoder_for(video_variant(frame_rate=25)) is full

    def test_none_when_no_decoder(self):
        bank = DecoderBank((Decoder(Codecs.MPEG1),))
        assert bank.decoder_for(video_variant(codec=Codecs.MJPEG)) is None
        assert not bank.can_decode(video_variant(codec=Codecs.MJPEG))

    def test_install_type_checked(self):
        bank = DecoderBank()
        with pytest.raises(DecoderError):
            bank.install("not a decoder")

    def test_codecs(self):
        bank = DecoderBank((Decoder(Codecs.MPEG1), Decoder(Codecs.JPEG)))
        assert {decoder.codec for decoder in bank} == {Codecs.MPEG1, Codecs.JPEG}


class TestStandardDecoders:
    def test_paper_scenario_mjpeg_rejected(self):
        # §4 step 2's own example: "the client machine supports only MPEG
        # decoder and the video variant is coded as MJPEG" -> infeasible.
        bank = standard_decoders()
        assert bank.can_decode(video_variant(codec=Codecs.MPEG1))
        assert not bank.can_decode(video_variant(codec=Codecs.MJPEG))

    def test_covers_all_default_media(self):
        bank = standard_decoders()
        names = {decoder.codec.name for decoder in bank}
        assert {"MPEG-1", "MPEG-AUDIO", "JPEG", "HTML"} <= names
