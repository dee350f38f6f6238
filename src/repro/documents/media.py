"""Media taxonomy and user-perceived quality scales.

Section 2 of the paper defines a monomedia as "a text, a still image, an
audio sequence, a graphic or a video sequence"; Section 3 / Figure 2 fix
the user-perceived quality scales the QoS GUI exposes:

* video **colour**: super-colour, colour, grey, black & white;
* video **frame rate**: integer between HDTV rate (60 f/s) and frozen
  rate (1 f/s), with named anchors HDTV / TV / frozen;
* video/image **resolution**: integer between HDTV resolution
  (1920 px/line) and minimal resolution (10 px/line), anchors
  HDTV / TV / minimal;
* **audio quality**: CD and telephone anchors (we add an intermediate
  radio grade so interpolation has an interior point to exercise);
* **language**: the importance examples rank "french over english".

These scales are shared by variants (what the system *has*, §2) and user
profiles (what the user *wants*, §3), which is what makes the offer /
profile comparison of §5 a plain attribute-wise comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..util.errors import UnknownMediumError, ValidationError
from ..util.validation import check_range

__all__ = [
    "Medium",
    "ColorMode",
    "AudioGrade",
    "Language",
    "Codec",
    "FrameRate",
    "Resolution",
    "HDTV_FRAME_RATE",
    "TV_FRAME_RATE",
    "FROZEN_FRAME_RATE",
    "HDTV_RESOLUTION",
    "TV_RESOLUTION",
    "MIN_RESOLUTION",
    "CONTINUOUS_MEDIA",
    "DISCRETE_MEDIA",
    "VISUAL_MEDIA",
]


class Medium(enum.Enum):
    """The five monomedia kinds of Section 2."""

    VIDEO = "video"
    AUDIO = "audio"
    IMAGE = "image"
    TEXT = "text"
    GRAPHIC = "graphic"

    @classmethod
    def parse(cls, name: "str | Medium") -> "Medium":
        if isinstance(name, Medium):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise UnknownMediumError(
                f"unknown medium {name!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None

    @property
    def is_continuous(self) -> bool:
        """Continuous media are streamed block-by-block (§6)."""
        return self in CONTINUOUS_MEDIA


CONTINUOUS_MEDIA = frozenset({Medium.VIDEO, Medium.AUDIO})
DISCRETE_MEDIA = frozenset({Medium.IMAGE, Medium.TEXT, Medium.GRAPHIC})
VISUAL_MEDIA = frozenset(
    {Medium.VIDEO, Medium.IMAGE, Medium.TEXT, Medium.GRAPHIC}
)


class ColorMode(enum.IntEnum):
    """Colour scale, ordered worst → best (the §5.2.1 comparison relies
    on this ordering: colour satisfies a request for grey, not vice
    versa)."""

    BLACK_AND_WHITE = 0
    GREY = 1
    COLOR = 2
    SUPER_COLOR = 3

    @classmethod
    def parse(cls, value: "str | int | ColorMode") -> "ColorMode":
        if isinstance(value, ColorMode):
            return value
        if isinstance(value, int):
            return cls(value)
        key = str(value).strip().lower().replace("&", "_and_").replace(" ", "_")
        aliases = {
            "black_and_white": cls.BLACK_AND_WHITE,
            "bw": cls.BLACK_AND_WHITE,
            "b_and_w": cls.BLACK_AND_WHITE,
            "grey": cls.GREY,
            "gray": cls.GREY,
            "color": cls.COLOR,
            "colour": cls.COLOR,
            "super_color": cls.SUPER_COLOR,
            "super_colour": cls.SUPER_COLOR,
            "supercolor": cls.SUPER_COLOR,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValidationError(f"unknown colour mode {value!r}") from None

    def __str__(self) -> str:
        return {
            ColorMode.BLACK_AND_WHITE: "black&white",
            ColorMode.GREY: "grey",
            ColorMode.COLOR: "color",
            ColorMode.SUPER_COLOR: "super-color",
        }[self]


class AudioGrade(enum.IntEnum):
    """Audio quality scale, ordered worst → best (Figure 2 anchors CD
    and telephone; radio added as an interior grade)."""

    TELEPHONE = 0
    RADIO = 1
    CD = 2

    @property
    def sample_rate_hz(self) -> int:
        return {
            AudioGrade.TELEPHONE: 8_000,
            AudioGrade.RADIO: 22_050,
            AudioGrade.CD: 44_100,
        }[self]

    @property
    def bits_per_sample(self) -> int:
        return {
            AudioGrade.TELEPHONE: 8,
            AudioGrade.RADIO: 16,
            AudioGrade.CD: 16,
        }[self]

    @property
    def channels(self) -> int:
        return {
            AudioGrade.TELEPHONE: 1,
            AudioGrade.RADIO: 1,
            AudioGrade.CD: 2,
        }[self]

    @classmethod
    def parse(cls, value: "str | int | AudioGrade") -> "AudioGrade":
        if isinstance(value, AudioGrade):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[str(value).strip().upper()]
        except KeyError:
            raise ValidationError(f"unknown audio grade {value!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


class Language(enum.Enum):
    """Languages a monomedia variant may be offered in (§3 example 4)."""

    FRENCH = "fr"
    ENGLISH = "en"
    GERMAN = "de"
    SPANISH = "es"
    NONE = "--"  # language-free media (music, graphics)

    @classmethod
    def parse(cls, value: "str | Language") -> "Language":
        if isinstance(value, Language):
            return value
        key = str(value).strip().lower()
        by_code = {lang.value: lang for lang in cls}
        by_name = {lang.name.lower(): lang for lang in cls}
        if key in by_code:
            return by_code[key]
        if key in by_name:
            return by_name[key]
        raise ValidationError(f"unknown language {value!r}")

    def __str__(self) -> str:
        return self.name.lower()


# -- named numeric anchors (Figure 2) ----------------------------------------

HDTV_FRAME_RATE = 60
TV_FRAME_RATE = 25
FROZEN_FRAME_RATE = 1

HDTV_RESOLUTION = 1920
TV_RESOLUTION = 720
MIN_RESOLUTION = 10


class FrameRate:
    """Validated frame-rate values: any integer in [1, 60] f/s (§3)."""

    MIN = FROZEN_FRAME_RATE
    MAX = HDTV_FRAME_RATE

    @staticmethod
    def check(value: int) -> int:
        return int(
            check_range(value, FrameRate.MIN, FrameRate.MAX, "frame rate",
                        integer=True)
        )


class Resolution:
    """Validated resolution values: any integer in [10, 1920] px/line."""

    MIN = MIN_RESOLUTION
    MAX = HDTV_RESOLUTION

    @staticmethod
    def check(value: int) -> int:
        return int(
            check_range(value, Resolution.MIN, Resolution.MAX, "resolution",
                        integer=True)
        )


@dataclass(frozen=True, slots=True)
class Codec:
    """A coding format a variant may be stored in (§4 step 2 checks these
    against the client's decoders)."""

    name: str
    medium: Medium
    scalable: bool = False  # the INRS decoder can down-scale such streams

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("codec name must be non-empty")

    def __str__(self) -> str:
        return self.name


class Codecs:
    """The codec registry used throughout the prototype."""

    MPEG1 = Codec("MPEG-1", Medium.VIDEO)
    MPEG2 = Codec("MPEG-2", Medium.VIDEO, scalable=True)
    MJPEG = Codec("M-JPEG", Medium.VIDEO)
    H261 = Codec("H.261", Medium.VIDEO)
    RAW_VIDEO = Codec("RAW-VIDEO", Medium.VIDEO)

    PCM = Codec("PCM", Medium.AUDIO)
    ADPCM = Codec("ADPCM", Medium.AUDIO)
    MPEG_AUDIO = Codec("MPEG-AUDIO", Medium.AUDIO)

    JPEG = Codec("JPEG", Medium.IMAGE)
    GIF = Codec("GIF", Medium.IMAGE)
    TIFF = Codec("TIFF", Medium.IMAGE)

    ASCII = Codec("ASCII", Medium.TEXT)
    HTML = Codec("HTML", Medium.TEXT)
    POSTSCRIPT = Codec("POSTSCRIPT", Medium.TEXT)

    CGM = Codec("CGM", Medium.GRAPHIC)
    SVG = Codec("SVG", Medium.GRAPHIC)

    _ALL = None  # populated lazily below

    @classmethod
    def all(cls) -> tuple[Codec, ...]:
        if cls._ALL is None:
            cls._ALL = tuple(
                value for value in vars(cls).values() if isinstance(value, Codec)
            )
        return cls._ALL

    @classmethod
    def by_name(cls, name: str) -> Codec:
        for codec in cls.all():
            if codec.name.lower() == str(name).lower():
                return codec
        raise ValidationError(f"unknown codec {name!r}")


__all__.append("Codecs")
