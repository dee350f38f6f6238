"""Media taxonomy and quality scales (paper §2/§3)."""

import pytest

from repro.documents.media import (
    CONTINUOUS_MEDIA,
    FROZEN_FRAME_RATE,
    HDTV_FRAME_RATE,
    HDTV_RESOLUTION,
    MIN_RESOLUTION,
    TV_FRAME_RATE,
    AudioGrade,
    Codecs,
    ColorMode,
    FrameRate,
    Language,
    Medium,
    Resolution,
)
from repro.util.errors import UnknownMediumError, ValidationError


class TestMedium:
    def test_five_media(self):
        assert {m.value for m in Medium} == {
            "video", "audio", "image", "text", "graphic",
        }

    def test_parse_string(self):
        assert Medium.parse("Video ") is Medium.VIDEO

    def test_parse_identity(self):
        assert Medium.parse(Medium.AUDIO) is Medium.AUDIO

    def test_parse_unknown(self):
        with pytest.raises(UnknownMediumError):
            Medium.parse("hologram")

    def test_continuous_vs_discrete(self):
        assert Medium.VIDEO.is_continuous
        assert Medium.AUDIO.is_continuous
        assert not Medium.TEXT.is_continuous
        assert CONTINUOUS_MEDIA == {Medium.VIDEO, Medium.AUDIO}


class TestColorMode:
    def test_ordering_worst_to_best(self):
        assert (
            ColorMode.BLACK_AND_WHITE
            < ColorMode.GREY
            < ColorMode.COLOR
            < ColorMode.SUPER_COLOR
        )

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("black&white", ColorMode.BLACK_AND_WHITE),
            ("bw", ColorMode.BLACK_AND_WHITE),
            ("gray", ColorMode.GREY),
            ("grey", ColorMode.GREY),
            ("colour", ColorMode.COLOR),
            ("super color", ColorMode.SUPER_COLOR),
            (2, ColorMode.COLOR),
        ],
    )
    def test_parse_aliases(self, alias, expected):
        assert ColorMode.parse(alias) is expected

    def test_parse_unknown(self):
        with pytest.raises(ValidationError):
            ColorMode.parse("sepia")

    def test_str_matches_paper_vocabulary(self):
        assert str(ColorMode.BLACK_AND_WHITE) == "black&white"
        assert str(ColorMode.SUPER_COLOR) == "super-color"


class TestAudioGrade:
    def test_ordering(self):
        assert AudioGrade.TELEPHONE < AudioGrade.RADIO < AudioGrade.CD

    def test_cd_parameters(self):
        assert AudioGrade.CD.sample_rate_hz == 44_100
        assert AudioGrade.CD.bits_per_sample == 16
        assert AudioGrade.CD.channels == 2

    def test_telephone_parameters(self):
        assert AudioGrade.TELEPHONE.sample_rate_hz == 8_000

    def test_parse(self):
        assert AudioGrade.parse("cd") is AudioGrade.CD
        assert AudioGrade.parse(0) is AudioGrade.TELEPHONE
        with pytest.raises(ValidationError):
            AudioGrade.parse("8-track")


class TestLanguage:
    def test_parse_code_and_name(self):
        assert Language.parse("fr") is Language.FRENCH
        assert Language.parse("French") is Language.FRENCH

    def test_parse_unknown(self):
        with pytest.raises(ValidationError):
            Language.parse("klingon")


class TestAnchors:
    def test_figure2_values(self):
        # Figure 2 / §3: HDTV rate 60, frozen rate 1, HDTV resolution
        # 1920, minimal resolution 10.
        assert HDTV_FRAME_RATE == 60
        assert FROZEN_FRAME_RATE == 1
        assert TV_FRAME_RATE == 25
        assert HDTV_RESOLUTION == 1920
        assert MIN_RESOLUTION == 10

    def test_frame_rate_bounds(self):
        assert FrameRate.check(1) == 1
        assert FrameRate.check(60) == 60
        with pytest.raises(ValidationError):
            FrameRate.check(0)
        with pytest.raises(ValidationError):
            FrameRate.check(61)
        with pytest.raises(ValidationError):
            FrameRate.check(12.5)

    def test_resolution_bounds(self):
        assert Resolution.check(10) == 10
        assert Resolution.check(1920) == 1920
        with pytest.raises(ValidationError):
            Resolution.check(9)
        with pytest.raises(ValidationError):
            Resolution.check(2000)


class TestCodecs:
    def test_registry_media(self):
        assert Codecs.MPEG1.medium is Medium.VIDEO
        assert Codecs.PCM.medium is Medium.AUDIO
        assert Codecs.JPEG.medium is Medium.IMAGE

    def test_by_name_case_insensitive(self):
        assert Codecs.by_name("mpeg-1") is Codecs.MPEG1

    def test_by_name_unknown(self):
        with pytest.raises(ValidationError):
            Codecs.by_name("theora")

    def test_scalable_flag(self):
        assert Codecs.MPEG2.scalable
        assert not Codecs.MPEG1.scalable
