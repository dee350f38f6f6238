"""Extended user preferences: server choice and security (paper §8
conclusion).

"The user profiles may include further QoS and cost preferences of the
user, other information related to document search, e.g. the user
prefers certain servers over others, security, etc."

Two mechanisms realise that sentence:

* a **security floor** — every server advertises a
  :class:`SecurityLevel` in the :class:`ServerDirectory`; variants
  hosted below the user's ``min_security`` are filtered out during step
  2, exactly like an undecodable codec;
* **server preference weights** — an additive OIF term per variant
  hosted on a preferred server (negative values express distrust), so
  preference participates in the §5 classification without touching the
  QoS/cost semantics.  Steps 3–4 add each variant's weight to its QoS
  importance (``classification._axis_columns``); a weight must be
  finite, since a NaN would leave the offer order undefined.  The
  weights are read-only and keyed once at construction
  (``weights_key``), so an offer space can keep the score columns they
  select (:mod:`repro.core.stream`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..documents.monomedia import Variant
from ..util.errors import ProfileError
from ..util.readonly import ReadOnlyDict
from .offers import SystemOffer

__all__ = [
    "SecurityLevel",
    "ServerAttributes",
    "ServerDirectory",
    "UserPreferences",
]


class SecurityLevel(enum.IntEnum):
    """How strongly a server's delivery path is protected."""

    PUBLIC = 0
    PROTECTED = 1
    CONFIDENTIAL = 2

    @classmethod
    def parse(cls, value: "str | int | SecurityLevel") -> "SecurityLevel":
        if isinstance(value, SecurityLevel):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[str(value).strip().upper()]
        except KeyError:
            raise ProfileError(f"unknown security level {value!r}") from None


@dataclass(frozen=True, slots=True)
class ServerAttributes:
    """Operator-published facts about one server."""

    security: SecurityLevel = SecurityLevel.PUBLIC
    region: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "security", SecurityLevel.parse(self.security))


class ServerDirectory:
    """Attributes per server id; unknown servers default to PUBLIC."""

    def __init__(
        self, attributes: "Mapping[str, ServerAttributes] | None" = None
    ) -> None:
        self._attributes: dict[str, ServerAttributes] = dict(attributes or {})

    def attributes_of(self, server_id: str) -> ServerAttributes:
        return self._attributes.get(server_id, ServerAttributes())

    def security_of(self, server_id: str) -> SecurityLevel:
        return self.attributes_of(server_id).security

    def __contains__(self, server_id: str) -> bool:
        return server_id in self._attributes

    def __len__(self) -> int:
        return len(self._attributes)


@dataclass(frozen=True)
class UserPreferences:
    """The conclusion's 'further preferences' bundle."""

    server_preference: Mapping[str, float] = field(default_factory=dict)
    min_security: SecurityLevel = SecurityLevel.PUBLIC
    # The weights by server id, each as ``float.hex`` so that ``-0.0``
    # and ``0.0`` differ; None when there are none, which scores like
    # no preferences at all.
    weights_key: "tuple[tuple[str, str], ...] | None" = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        weights = {str(k): float(v) for k, v in self.server_preference.items()}
        for server_id, weight in weights.items():
            if not math.isfinite(weight):
                raise ProfileError(
                    f"server preference of {server_id!r} must be finite, "
                    f"got {weight!r}"
                )
        object.__setattr__(self, "server_preference", ReadOnlyDict(weights))
        object.__setattr__(self, "weights_key", tuple(
            (server_id, weights[server_id].hex())
            for server_id in sorted(weights)
        ) or None)
        object.__setattr__(
            self, "min_security", SecurityLevel.parse(self.min_security)
        )

    # -- step-2 filtering ---------------------------------------------------------

    def variant_filter(
        self, directory: ServerDirectory
    ) -> Callable[[Variant], bool]:
        """Predicate admitting variants on sufficiently secure servers."""

        def admissible(variant: Variant) -> bool:
            return directory.security_of(variant.server_id) >= self.min_security

        return admissible

    # -- classification bonus ---------------------------------------------------------

    def variant_bonus(self, variant: Variant) -> float:
        return self.server_preference.get(variant.server_id, 0.0)

    def offer_bonus(self, offer: SystemOffer) -> float:
        """Additive OIF adjustment: the sum of per-variant preferences."""
        return sum(
            self.variant_bonus(variant) for variant in offer.variants.values()
        )
