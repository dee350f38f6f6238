"""User profiles (paper §3, Figure 2).

"A user profile consists of (1) a MM profile which indicates the desired
values, (2) a MM profile which indicates the worst acceptable values,
and (3) the importance profile...  A MM profile consists of video,
audio, text, and image profiles, cost profile and time profile."

An :class:`MMProfile` is one bundle of per-medium QoS points plus cost
and time bounds.  The same type represents *user offers* (§4 Definition
2: "a user offer is specified as a MM profile"), so comparing an offer
against the profile is symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

from ..documents.media import Medium
from ..documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    MediaQoS,
    TextQoS,
    VideoQoS,
    qos_class_for,
)
from ..util.errors import ProfileError
from ..util.units import Money, dollars
from ..util.validation import check_name, check_positive

__all__ = ["TimeProfile", "MMProfile", "UserProfile"]

_MEDIA_FIELDS: tuple[tuple[Medium, str, type], ...] = tuple(
    (medium, medium.value, qos_class_for(medium)) for medium in Medium
)
"""``(medium, field name, QoS class)`` per :class:`MMProfile` media
field, in enum order: built once, so walking a profile's media reads no
``Enum.value`` and looks up no class."""


@dataclass(frozen=True, slots=True)
class TimeProfile:
    """Time constraints of §3: how soon delivery must start and how long
    the user will keep resources waiting for confirmation (§8's
    ``choicePeriod`` default lives here)."""

    delivery_deadline_s: float = 30.0
    choice_period_s: float = 60.0

    def __post_init__(self) -> None:
        check_positive(self.delivery_deadline_s, "delivery_deadline_s")
        check_positive(self.choice_period_s, "choice_period_s")


@dataclass(frozen=True, slots=True)
class MMProfile:
    """One MM profile: per-medium QoS points + cost + time bounds.

    Media the user does not care about are simply absent (``None``) —
    the §5 comparison then skips them.
    """

    video: VideoQoS | None = None
    audio: AudioQoS | None = None
    image: ImageQoS | None = None
    text: TextQoS | None = None
    graphic: GraphicQoS | None = None
    cost: Money = field(default_factory=Money.zero)
    time: TimeProfile = field(default_factory=TimeProfile)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", dollars(self.cost))
        for _, name, qos_class in _MEDIA_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, qos_class):
                raise ProfileError(
                    f"{name} entry must be "
                    f"{qos_class.__name__}, got {type(value).__name__}"
                )
        if self.cost.cents < 0:
            raise ProfileError(f"cost must be non-negative, got {self.cost}")

    # -- access ------------------------------------------------------------------

    def qos_for(self, medium: "Medium | str") -> MediaQoS | None:
        return getattr(self, Medium.parse(medium).value)

    def media_present(self) -> tuple[Medium, ...]:
        return tuple([
            medium for medium, name, _ in _MEDIA_FIELDS
            if getattr(self, name) is not None
        ])

    def qos_points(self) -> Iterator[tuple[Medium, MediaQoS]]:
        for medium, name, _ in _MEDIA_FIELDS:
            value = getattr(self, name)
            if value is not None:
                yield medium, value

    def with_qos(self, qos: MediaQoS) -> "MMProfile":
        """Copy with one medium's QoS replaced."""
        return replace(self, **{qos.medium.value: qos})

    def with_cost(self, cost: "Money | float") -> "MMProfile":
        return replace(self, cost=dollars(cost))

    # -- comparison (the §5 building block) -----------------------------------------

    def qos_satisfied_by(self, offered: "MMProfile") -> bool:
        """True iff ``offered`` meets or exceeds this profile's QoS for
        every medium this profile constrains.  Cost is deliberately not
        part of this test — §5.2.1 computes SNS from QoS alone."""
        for _, name, _ in _MEDIA_FIELDS:
            bound = getattr(self, name)
            if bound is None:
                continue
            offer_qos = getattr(offered, name)
            if offer_qos is None or not offer_qos.satisfies(bound):
                return False
        return True

    def qos_violations(self, offered: "MMProfile") -> dict[Medium, tuple[str, ...]]:
        """Per-medium violated parameter names (the red constraint
        buttons of the §8 profile-component window)."""
        violations: dict[Medium, tuple[str, ...]] = {}
        for medium, name, _ in _MEDIA_FIELDS:
            bound = getattr(self, name)
            if bound is None:
                continue
            offer_qos = getattr(offered, name)
            if offer_qos is None:
                violations[medium] = ("missing",)
            else:
                bad = offer_qos.violated_parameters(bound)
                if bad:
                    violations[medium] = bad
        return violations

    def cost_satisfied_by(self, offered: "MMProfile") -> bool:
        """Whether the offer's price is within this profile's budget."""
        return offered.cost <= self.cost

    def describe(self) -> str:
        parts = [f"{medium.value}={qos}" for medium, qos in self.qos_points()]
        parts.append(f"cost={self.cost}")
        return "MMProfile(" + ", ".join(parts) + ")"


@dataclass(frozen=True, slots=True)
class UserProfile:
    """Desired + worst-acceptable MM profiles + the importance profile.

    The importance profile is typed loosely here (any object exposing
    the :class:`~repro.core.importance.ImportanceProfile` interface) to
    keep this module import-light; the negotiation layer always passes
    the real class.
    """

    name: str
    desired: MMProfile
    worst: MMProfile
    importance: object = None
    preferences: object = None
    """Optional :class:`repro.core.preferences.UserPreferences` — the
    conclusion's 'further preferences' (server choice, security)."""

    def __post_init__(self) -> None:
        check_name(self.name, "profile name")
        # The worst-acceptable profile must constrain the same media as
        # the desired profile, and must not demand *more* than desired.
        desired_media = set(self.desired.media_present())
        worst_media = set(self.worst.media_present())
        if desired_media != worst_media:
            raise ProfileError(
                f"desired and worst profiles constrain different media: "
                f"{sorted(m.value for m in desired_media)} vs "
                f"{sorted(m.value for m in worst_media)}"
            )
        if not self.worst.qos_satisfied_by(self.desired):
            # desired must dominate worst: asking for worse than the
            # minimum one accepts is contradictory.
            raise ProfileError(
                "desired QoS must satisfy the worst-acceptable bounds"
            )

    @property
    def max_cost(self) -> Money:
        """The overall cost ceiling: the larger of the two profile costs
        (the §5 examples use a single maximum-cost figure; building both
        profiles with the same cost reproduces that)."""
        return max(self.desired.cost, self.worst.cost)

    def media(self) -> tuple[Medium, ...]:
        return self.desired.media_present()

    @property
    def choice_period_s(self) -> float:
        return self.desired.time.choice_period_s

    def __str__(self) -> str:
        return f"UserProfile({self.name!r}, max_cost={self.max_cost})"
