"""Importance factors and the overall importance factor (paper §5.2.2).

"The importance factors indicate the relative importance between QoS
characteristics and cost."  For each QoS parameter the user sets
importance values *at named anchor values only* (e.g. frozen / TV / HDTV
rate); values in between are interpolated linearly (§5.2.2(a): "the
importance increases (or decreases) linearly from frozen rate to TV
rate, and from TV rate to HDTV rate").  Exact per-value overrides are
also supported — the paper's own worked example assigns 15 frames/s an
importance of 5 directly, which no linear anchor interpolation yields.

The three computations of §5.2.2:

* (a) QoS importance of an offer = sum of the importance factors of its
  QoS parameter values (per medium, scaled by the §3 media weight);
* (b) cost importance = (importance of 1 $) × (cost of the offer);
* (c) overall importance factor ``OIF = QoS_importance − cost_importance``.

(a) runs once per variant on every request (§4 step 3) and its floats
decide the classified order, so two things hold here.  The
interpolation is scalar Python that performs ``np.interp``'s IEEE
operations in ``np.interp``'s order and returns the same bits
(``np.interp`` itself is kept as the test oracle, not called).  And
every table entry — anchors, overrides, level maps, media weights — is
finite, checked at construction: a NaN importance would be a NaN OIF,
on which the offer order is undefined.

The tables are read-only (:class:`~repro.util.readonly.ReadOnlyDict`,
whose repr is a plain dict's), and each profile carries
``tables_key``: the bits of every entry (a) reads, packed once at
construction.  Two profiles with equal keys score every QoS point to
the same bits, which is what lets an offer space keep its score
columns across requests (:mod:`repro.core.stream`).
"""

from __future__ import annotations

import enum
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..documents.media import (
    FROZEN_FRAME_RATE,
    HDTV_FRAME_RATE,
    HDTV_RESOLUTION,
    MIN_RESOLUTION,
    TV_FRAME_RATE,
    TV_RESOLUTION,
    AudioGrade,
    ColorMode,
    Language,
    Medium,
)
from ..documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    MediaQoS,
    TextQoS,
    VideoQoS,
)
from ..util.errors import ProfileError
from ..util.readonly import ReadOnlyDict
from ..util.units import Money
from ..util.validation import check_non_negative

__all__ = [
    "ScaleImportance",
    "ImportanceProfile",
    "default_importance",
    "paper_example_importance",
]


def _finite(value: float, what: str) -> float:
    """An importance table entry as a float.  NaN or ±inf would reach
    the OIF, on which neither the stream's heap key nor the lexsort is
    an order any more."""
    number = float(value)
    if not math.isfinite(number):
        raise ProfileError(f"{what} must be finite, got {number!r}")
    return number


_MISSING = math.nan
"""A table entry the key records as absent: never a legal value, since
every entry is finite."""


_LEVEL_MEMBERS: "tuple[tuple[enum.Enum, ...], ...]" = (
    tuple(ColorMode), tuple(AudioGrade), tuple(Language), tuple(Medium)
)
"""The members each level table is keyed by, in enum order."""


@dataclass(frozen=True)
class ScaleImportance:
    """Importance over one numeric QoS scale.

    ``anchors`` maps named scale values to importance (e.g. frozen / TV
    / HDTV frame rates); lookups between anchors interpolate linearly,
    outside the anchor span they clamp.  ``overrides`` wins over
    interpolation for exact values.
    """

    anchors: Mapping[float, float]
    overrides: Mapping[float, float] = field(default_factory=dict)
    # The anchors as two parallel float lists, scale values ascending:
    # what ``value`` searches and interpolates over.
    _xs: "list[float]" = field(init=False, repr=False, compare=False)
    _vs: "list[float]" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.anchors) < 1:
            raise ProfileError("a scale needs at least one anchor")
        for x, v in self.overrides.items():
            _finite(x, "override scale value")
            _finite(v, f"override importance at {x!r}")
        anchors = sorted(
            (
                _finite(x, "anchor scale value"),
                _finite(v, f"anchor importance at {x!r}"),
            )
            for x, v in self.anchors.items()
        )
        object.__setattr__(self, "_xs", [x for x, _ in anchors])
        object.__setattr__(self, "_vs", [v for _, v in anchors])
        object.__setattr__(self, "anchors", ReadOnlyDict(self.anchors))
        object.__setattr__(self, "overrides", ReadOnlyDict(self.overrides))

    def value(self, x: float) -> float:
        """Importance factor of scale value ``x`` (finite).

        The steps below are ``np.interp``'s for one ``x``, operation
        for operation — clamp outside the span, an anchor's own value
        exactly, else ``slope * (x - x_j) + v_j`` — so the result has
        the same bits; keep them in this order
        (``tests/properties/test_property_scoring.py`` holds
        ``np.interp`` up as the oracle).
        """
        x = float(x)
        override = self.overrides.get(x)
        if override is not None:
            return float(override)
        xs, vs = self._xs, self._vs
        j = bisect_right(xs, x) - 1
        if j < 0:
            return vs[0]
        x_j, v_j = xs[j], vs[j]
        if x_j == x or j == len(xs) - 1:
            return v_j
        slope = (vs[j + 1] - v_j) / (xs[j + 1] - x_j)
        return slope * (x - x_j) + v_j


def _scale_numbers(scale: ScaleImportance) -> "list[float]":
    """Every number ``scale.value`` reads, self-delimiting: the anchor
    and override counts, the anchors, then the overrides by scale
    value."""
    overrides = sorted(
        (float(x), float(v)) for x, v in scale.overrides.items()
    )
    return (
        [len(scale._xs), len(overrides), *scale._xs, *scale._vs]
        + [number for pair in overrides for number in pair]
    )


def _level_map(mapping: Mapping, what: str) -> ReadOnlyDict:
    result = {}
    for key, value in mapping.items():
        result[key] = _finite(value, f"{what} importance of {key}")
    if not result:
        raise ProfileError(f"{what} importance map must not be empty")
    return ReadOnlyDict(result)


@dataclass(frozen=True)
class ImportanceProfile:
    """All importance factors of one user (§3 + §5.2.2).

    The per-medium weights realise §3's "the audio is more important
    than the video"; the per-parameter tables realise "video frame rate
    is more important than video resolution" and "french is more
    important than english".
    """

    color: Mapping[ColorMode, float]
    frame_rate: ScaleImportance
    resolution: ScaleImportance
    audio_grade: Mapping[AudioGrade, float]
    language: Mapping[Language, float]
    media_weight: Mapping[Medium, float]
    cost_per_dollar: float = 0.0
    # Every bit ``qos_importance`` reads: the level tables in enum order
    # (an absent level as NaN), then the two scales' key numbers; the
    # cost term is not in it.
    tables_key: bytes = field(init=False, repr=False, compare=False)
    # The importance digest, written once by
    # ``repro.perf.fingerprint.importance_fingerprint``.  Every table is
    # read-only, so it never goes stale.
    _fingerprint: "str | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "color", _level_map(self.color, "color"))
        object.__setattr__(
            self, "audio_grade", _level_map(self.audio_grade, "audio grade")
        )
        object.__setattr__(self, "language", _level_map(self.language, "language"))
        weights = {
            Medium.parse(k): _finite(v, f"media weight of {k}")
            for k, v in self.media_weight.items()
        }
        for medium in Medium:
            weights.setdefault(medium, 1.0)
        object.__setattr__(self, "media_weight", ReadOnlyDict(weights))
        check_non_negative(self.cost_per_dollar, "cost_per_dollar")
        missing = [mode for mode in ColorMode if mode not in self.color]
        if missing:
            raise ProfileError(f"color importance missing levels: {missing}")
        tables: "tuple[Mapping[Any, float], ...]" = (
            self.color, self.audio_grade, self.language, self.media_weight
        )
        numbers = [
            table.get(member, _MISSING)
            for table, members in zip(tables, _LEVEL_MEMBERS)
            for member in members
        ]
        numbers += _scale_numbers(self.frame_rate)
        numbers += _scale_numbers(self.resolution)
        # Packed as IEEE doubles, so ``-0.0`` and ``0.0`` differ, as they
        # can in a score.
        object.__setattr__(
            self, "tables_key", struct.pack(f"<{len(numbers)}d", *numbers)
        )

    # -- §5.2.2 (a): QoS importance ------------------------------------------------

    def qos_importance(self, qos: MediaQoS) -> float:
        """Importance of one monomedia's QoS point: the sum of its
        parameter-value importances, scaled by the medium weight."""
        weight = self.media_weight[qos.medium]
        if isinstance(qos, VideoQoS):
            raw = (
                self.color[qos.color]
                + self.frame_rate.value(qos.frame_rate)
                + self.resolution.value(qos.resolution)
            )
        elif isinstance(qos, AudioQoS):
            raw = self.audio_grade[qos.grade] + self.language.get(qos.language, 0.0)
        elif isinstance(qos, (ImageQoS, GraphicQoS)):
            raw = self.color[qos.color] + self.resolution.value(qos.resolution)
        elif isinstance(qos, TextQoS):
            raw = self.language.get(qos.language, 0.0)
        else:  # pragma: no cover - closed union
            raise ProfileError(f"no importance rule for {type(qos).__name__}")
        return weight * raw

    # -- §5.2.2 (b): cost importance -------------------------------------------------

    def cost_importance(self, cost: Money) -> float:
        """Product of the 1-$ importance factor and the offer's cost."""
        return self.cost_per_dollar * cost.amount

    # -- §5.2.2 (c): overall importance ------------------------------------------------

    def overall_importance(
        self, qos_points: "list[MediaQoS] | tuple[MediaQoS, ...]", cost: Money
    ) -> float:
        """``OIF = Σ QoS_importance − cost_importance``."""
        return (
            sum(self.qos_importance(qos) for qos in qos_points)
            - self.cost_importance(cost)
        )

    # -- editing (profile-manager facilities, §5.2.2: "at any time during
    #    the negotiation phase, the user may modify these values") ---------------

    def with_cost_per_dollar(self, value: float) -> "ImportanceProfile":
        return replace(self, cost_per_dollar=float(value))

    def with_media_weight(self, medium: "Medium | str", weight: float) -> "ImportanceProfile":
        weights = dict(self.media_weight)
        weights[Medium.parse(medium)] = float(weight)
        return replace(self, media_weight=weights)

    def with_language(self, language: Language, value: float) -> "ImportanceProfile":
        languages = dict(self.language)
        languages[Language.parse(language)] = float(value)
        return replace(self, language=languages)


def default_importance() -> ImportanceProfile:
    """The default importance values the profile manager associates with
    each QoS parameter value (§5.2.2: "We associate a default importance
    value for each QoS parameter value"), with a mild cost sensitivity."""
    return ImportanceProfile(
        color={
            ColorMode.SUPER_COLOR: 10.0,
            ColorMode.COLOR: 8.0,
            ColorMode.GREY: 4.0,
            ColorMode.BLACK_AND_WHITE: 1.0,
        },
        frame_rate=ScaleImportance(
            anchors={
                float(FROZEN_FRAME_RATE): 1.0,
                float(TV_FRAME_RATE): 8.0,
                float(HDTV_FRAME_RATE): 10.0,
            }
        ),
        resolution=ScaleImportance(
            anchors={
                float(MIN_RESOLUTION): 1.0,
                float(TV_RESOLUTION): 8.0,
                float(HDTV_RESOLUTION): 10.0,
            }
        ),
        audio_grade={
            AudioGrade.CD: 8.0,
            AudioGrade.RADIO: 5.0,
            AudioGrade.TELEPHONE: 2.0,
        },
        language={
            Language.ENGLISH: 1.0,
            Language.FRENCH: 1.0,
            Language.GERMAN: 1.0,
            Language.SPANISH: 1.0,
            Language.NONE: 0.0,
        },
        media_weight={},
        cost_per_dollar=1.0,
    )


def paper_example_importance(cost_per_dollar: float = 4.0) -> ImportanceProfile:
    """The importance setting of the §5.2.2 worked example (setting 1):
    colour 9, grey 6, black&white 2, TV resolution 9, 25 frames/s 9,
    15 frames/s 5, cost importance 4.

    The frame-rate values 25→9 and 15→5 are installed as exact
    overrides, reproducing the paper's numbers verbatim; other scale
    values fall back to interpolation between the stated anchors.
    """
    base = default_importance()
    return ImportanceProfile(
        color={
            ColorMode.SUPER_COLOR: 10.0,  # not used by the example
            ColorMode.COLOR: 9.0,
            ColorMode.GREY: 6.0,
            ColorMode.BLACK_AND_WHITE: 2.0,
        },
        frame_rate=ScaleImportance(
            anchors={
                float(FROZEN_FRAME_RATE): 1.0,
                float(TV_FRAME_RATE): 9.0,
                float(HDTV_FRAME_RATE): 10.0,
            },
            overrides={25.0: 9.0, 15.0: 5.0},
        ),
        resolution=ScaleImportance(
            anchors={
                float(MIN_RESOLUTION): 1.0,
                float(TV_RESOLUTION): 9.0,
                float(HDTV_RESOLUTION): 10.0,
            }
        ),
        audio_grade=dict(base.audio_grade),
        language=dict(base.language),
        media_weight={},
        cost_per_dollar=cost_per_dollar,
    )
