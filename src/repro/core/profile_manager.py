"""The profile manager (paper §3, §8).

"The system component responsible for user profile management via the
QoS GUI is called the profile manager."  It stores named user profiles,
supports the GUI's *Save* / *Save as* / delete operations (the first
profile saved is the default), and ships the stock profiles a fresh installation offers.

The stock profiles span the preference spectrum the §5.2.2 examples
explore: quality-first (cost importance 0), budget (QoS importance
low, cost dominant), and a balanced default.
"""

from __future__ import annotations

from typing import Iterator

from ..documents.media import (
    AudioGrade,
    ColorMode,
    Language,
    TV_FRAME_RATE,
    TV_RESOLUTION,
)
from ..documents.quality import AudioQoS, MediaQoS, VideoQoS
from ..util.errors import DuplicateKeyError, NotFoundError, ProfileError
from .importance import ImportanceProfile, default_importance
from .profiles import MMProfile, TimeProfile, UserProfile

__all__ = ["ProfileManager", "standard_profiles", "make_profile"]


def make_profile(
    name: str,
    *,
    desired_video: VideoQoS | None = None,
    worst_video: VideoQoS | None = None,
    desired_audio: AudioQoS | None = None,
    worst_audio: AudioQoS | None = None,
    max_cost: float = 10.0,
    importance: ImportanceProfile | None = None,
    **extra_media: "MediaQoS | None",
) -> UserProfile:
    """Convenience constructor for the common video(+audio) profile.

    ``extra_media`` may pass ``desired_image``/``worst_image`` etc.;
    worst bounds default to the desired values (the §5.2.1 example's
    "the desired and the worst acceptable values are the same").
    """
    time = TimeProfile()

    def pick(kind: str, medium: str):
        desired = extra_media.get(f"desired_{medium}")
        worst = extra_media.get(f"worst_{medium}", desired)
        return desired if kind == "desired" else worst

    desired_kwargs = {}
    worst_kwargs = {}
    if desired_video is not None:
        desired_kwargs["video"] = desired_video
        worst_kwargs["video"] = worst_video or desired_video
    if desired_audio is not None:
        desired_kwargs["audio"] = desired_audio
        worst_kwargs["audio"] = worst_audio or desired_audio
    for medium in ("image", "text", "graphic"):
        desired = pick("desired", medium)
        worst = pick("worst", medium)
        if desired is not None:
            desired_kwargs[medium] = desired
            worst_kwargs[medium] = worst
    if not desired_kwargs:
        raise ProfileError(f"profile {name!r} constrains no media")
    return UserProfile(
        name=name,
        desired=MMProfile(cost=max_cost, time=time, **desired_kwargs),
        worst=MMProfile(cost=max_cost, time=time, **worst_kwargs),
        importance=importance or default_importance(),
    )


def standard_profiles() -> "list[UserProfile]":
    """The stock profiles a fresh profile manager offers."""
    premium = make_profile(
        "premium",
        desired_video=VideoQoS(
            color=ColorMode.COLOR, frame_rate=TV_FRAME_RATE,
            resolution=TV_RESOLUTION,
        ),
        worst_video=VideoQoS(
            color=ColorMode.COLOR, frame_rate=15, resolution=TV_RESOLUTION
        ),
        desired_audio=AudioQoS(grade=AudioGrade.CD, language=Language.ENGLISH),
        worst_audio=AudioQoS(grade=AudioGrade.RADIO, language=Language.ENGLISH),
        max_cost=12.0,
        importance=default_importance().with_cost_per_dollar(0.0),
    )
    balanced = make_profile(
        "balanced",
        desired_video=VideoQoS(
            color=ColorMode.COLOR, frame_rate=TV_FRAME_RATE,
            resolution=TV_RESOLUTION,
        ),
        worst_video=VideoQoS(
            color=ColorMode.GREY, frame_rate=10, resolution=360
        ),
        desired_audio=AudioQoS(grade=AudioGrade.CD, language=Language.ENGLISH),
        worst_audio=AudioQoS(
            grade=AudioGrade.TELEPHONE, language=Language.ENGLISH
        ),
        max_cost=6.0,
        importance=default_importance(),
    )
    economy = make_profile(
        "economy",
        desired_video=VideoQoS(
            color=ColorMode.GREY, frame_rate=15, resolution=360
        ),
        worst_video=VideoQoS(
            color=ColorMode.BLACK_AND_WHITE, frame_rate=5, resolution=180
        ),
        desired_audio=AudioQoS(
            grade=AudioGrade.TELEPHONE, language=Language.ENGLISH
        ),
        max_cost=2.5,
        importance=default_importance().with_cost_per_dollar(5.0),
    )
    audio_first = make_profile(
        "audio-first",
        desired_video=VideoQoS(
            color=ColorMode.GREY, frame_rate=10, resolution=360
        ),
        worst_video=VideoQoS(
            color=ColorMode.BLACK_AND_WHITE, frame_rate=1, resolution=180
        ),
        desired_audio=AudioQoS(grade=AudioGrade.CD, language=Language.FRENCH),
        worst_audio=AudioQoS(grade=AudioGrade.RADIO, language=Language.FRENCH),
        max_cost=5.0,
        importance=default_importance()
        .with_media_weight("audio", 3.0)
        .with_language(Language.FRENCH, 3.0),
    )
    return [premium, balanced, economy, audio_first]


class ProfileManager:
    """Named user-profile store behind the QoS GUI windows."""

    def __init__(self) -> None:
        self._profiles: dict[str, UserProfile] = {}
        self._default: str | None = None
        for profile in standard_profiles():
            self.save_as(profile)

    # -- GUI operations (§8 main window) ----------------------------------------

    def save_as(self, profile: UserProfile) -> None:
        """'Save as': create a new named profile."""
        if profile.name in self._profiles:
            raise DuplicateKeyError(f"profile {profile.name!r} exists")
        self._profiles[profile.name] = profile
        if self._default is None:
            self._default = profile.name

    def save(self, profile: UserProfile) -> None:
        """'Save': overwrite an existing profile."""
        if profile.name not in self._profiles:
            raise NotFoundError(f"no profile {profile.name!r}")
        self._profiles[profile.name] = profile

    def delete(self, name: str) -> None:
        if self._profiles.pop(name, None) is None:
            raise NotFoundError(f"no profile {name!r}")
        if self._default == name:
            self._default = next(iter(self._profiles), None)

    def get(self, name: str) -> UserProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise NotFoundError(f"no profile {name!r}") from None

    @property
    def default(self) -> UserProfile:
        if self._default is None:
            raise NotFoundError("profile manager is empty")
        return self._profiles[self._default]

    @property
    def default_name(self) -> "str | None":
        return self._default

    def names(self) -> tuple[str, ...]:
        return tuple(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self._profiles.values())

    def __contains__(self, name: str) -> bool:
        return name in self._profiles
