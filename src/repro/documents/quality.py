"""Per-medium QoS value objects.

A *QoS point* records the user-perceived quality of one monomedia — of a
stored variant (§2: "the QoS parameters associated with the file, e.g.
video color and audio quality") or of a profile bound (§3: desired /
worst-acceptable values).  Putting both sides of the §5 comparison on the
same types makes the static-negotiation-status computation a plain
attribute-wise ``satisfies`` check.

Each class also exposes its attributes as ``(parameter name, value)``
pairs through :meth:`qos_items`, in declaration order — what the
profile windows of §8 and the JSON records render.  (The importance
machinery of §5.2.2 does not go through it:
:meth:`~repro.core.importance.ImportanceProfile.qos_importance` reads
the attributes of each class by name.)

The comparisons run once or twice per variant on every request (§4
step 3), so they walk the parameter names the cheapest way there is:
the five classes are ``slots=True`` dataclasses, whose ``__slots__`` is
the tuple of field names in declaration order, resolved when the class
is created and never per call (no ``dataclasses.fields`` reflection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from ..util.errors import ValidationError
from .media import (
    AudioGrade,
    ColorMode,
    FrameRate,
    Language,
    Medium,
    Resolution,
)

__all__ = [
    "VideoQoS",
    "AudioQoS",
    "ImageQoS",
    "TextQoS",
    "GraphicQoS",
    "MediaQoS",
    "qos_class_for",
]


class _QoSBase:
    """Shared behaviour of the per-medium QoS points."""

    medium: Medium  # set on each subclass
    __slots__: tuple[str, ...]  # set by @dataclass(slots=True) on each subclass

    def qos_items(self) -> Iterator[tuple[str, object]]:
        """Yield ``(parameter, value)`` pairs in declaration order."""
        for name in self.__slots__:
            yield name, getattr(self, name)

    def satisfies(self, requirement: "_QoSBase") -> bool:
        """True iff every parameter of ``self`` meets or exceeds the one
        in ``requirement`` (the §5.2.1 ACCEPTABLE test, applied against a
        worst-acceptable bound, or the DESIRABLE test against a desired
        bound)."""
        if type(requirement) is not type(self):
            raise ValidationError(
                f"cannot compare {type(self).__name__} against "
                f"{type(requirement).__name__}"
            )
        for name in self.__slots__:
            if not _param_satisfies(
                getattr(self, name), getattr(requirement, name)
            ):
                return False
        return True

    def violated_parameters(self, requirement: "_QoSBase") -> tuple[str, ...]:
        """Names of parameters where ``self`` falls below ``requirement``
        — used by the profile-component window to colour the offending
        constraint buttons red (§8)."""
        if type(requirement) is not type(self):
            raise ValidationError(
                f"cannot compare {type(self).__name__} against "
                f"{type(requirement).__name__}"
            )
        return tuple(
            name
            for name in self.__slots__
            if not _param_satisfies(
                getattr(self, name), getattr(requirement, name)
            )
        )

    def as_dict(self) -> dict:
        return {name: _plain(value) for name, value in self.qos_items()}


def _param_satisfies(mine: object, theirs: object) -> bool:
    """Per-parameter ordering.  Ordered scales (colour, grade, numeric
    rates/resolutions) compare with >=; languages are an equality match
    (an English track does not "exceed" a French request)."""
    if isinstance(mine, Language) or isinstance(theirs, Language):
        return mine == theirs or theirs == Language.NONE
    return mine >= theirs  # type: ignore[operator]


def _plain(value: object) -> object:
    if isinstance(value, (ColorMode, AudioGrade)):
        return value.name.lower()
    if isinstance(value, Language):
        return value.value
    return value


@dataclass(frozen=True, slots=True)
class VideoQoS(_QoSBase):
    """Video quality point: (colour, frame rate, resolution) — the triple
    of every §5 example."""

    color: ColorMode
    frame_rate: int
    resolution: int

    medium = Medium.VIDEO

    def __post_init__(self) -> None:
        object.__setattr__(self, "color", ColorMode.parse(self.color))
        object.__setattr__(self, "frame_rate", FrameRate.check(self.frame_rate))
        object.__setattr__(self, "resolution", Resolution.check(self.resolution))

    def __str__(self) -> str:
        return f"({self.color}, {self.frame_rate} frames/s, {self.resolution} px)"


@dataclass(frozen=True, slots=True)
class AudioQoS(_QoSBase):
    """Audio quality point: grade anchor plus language."""

    grade: AudioGrade
    language: Language = Language.NONE

    medium = Medium.AUDIO

    def __post_init__(self) -> None:
        object.__setattr__(self, "grade", AudioGrade.parse(self.grade))
        object.__setattr__(self, "language", Language.parse(self.language))

    @property
    def sample_rate_hz(self) -> int:
        return self.grade.sample_rate_hz

    def __str__(self) -> str:
        lang = f", {self.language}" if self.language is not Language.NONE else ""
        return f"({self.grade} audio{lang})"


@dataclass(frozen=True, slots=True)
class ImageQoS(_QoSBase):
    """Still-image quality point."""

    color: ColorMode
    resolution: int

    medium = Medium.IMAGE

    def __post_init__(self) -> None:
        object.__setattr__(self, "color", ColorMode.parse(self.color))
        object.__setattr__(self, "resolution", Resolution.check(self.resolution))

    def __str__(self) -> str:
        return f"({self.color} image, {self.resolution} px)"


@dataclass(frozen=True, slots=True)
class TextQoS(_QoSBase):
    """Text quality point: language is the negotiable parameter."""

    language: Language

    medium = Medium.TEXT

    def __post_init__(self) -> None:
        object.__setattr__(self, "language", Language.parse(self.language))

    def __str__(self) -> str:
        return f"(text, {self.language})"


@dataclass(frozen=True, slots=True)
class GraphicQoS(_QoSBase):
    """Graphic quality point."""

    color: ColorMode
    resolution: int

    medium = Medium.GRAPHIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "color", ColorMode.parse(self.color))
        object.__setattr__(self, "resolution", Resolution.check(self.resolution))

    def __str__(self) -> str:
        return f"({self.color} graphic, {self.resolution} px)"


MediaQoS = Union[VideoQoS, AudioQoS, ImageQoS, TextQoS, GraphicQoS]

_BY_MEDIUM = {
    Medium.VIDEO: VideoQoS,
    Medium.AUDIO: AudioQoS,
    Medium.IMAGE: ImageQoS,
    Medium.TEXT: TextQoS,
    Medium.GRAPHIC: GraphicQoS,
}


def qos_class_for(medium: "Medium | str") -> type:
    """Return the QoS point class for ``medium``."""
    return _BY_MEDIUM[Medium.parse(medium)]
