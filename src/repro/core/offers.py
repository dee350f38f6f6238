"""System offers and user offers (paper §4, Definitions 1 and 2).

* **System offer** — "a set of variants (a variant for each monomedia
  component of the document) and the cost the user should pay."
* **User offer** — "the QoS the system is able to provide and the cost
  ... specified as a MM profile", derived from a system offer by mapping
  each variant to the QoS *presented at the client* (decoder scaling and
  display clamping applied).

Keeping the presented QoS on the system offer (rather than the stored
variant QoS) is what makes the classification honest: a super-colour
stream displayed on a grey screen competes as a grey offer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..documents.media import Language, Medium
from ..documents.monomedia import Variant
from ..documents.quality import MediaQoS
from ..util.errors import OfferError
from ..util.units import Money
from .profiles import MMProfile, TimeProfile

__all__ = ["SystemOffer", "derive_user_offer"]


@dataclass(frozen=True, slots=True)
class SystemOffer:
    """One candidate configuration: a variant per monomedia + its cost.

    ``presented`` holds, per monomedia, the QoS the client machine will
    actually show for the chosen variant.  ``cost`` is the §7 document
    cost of this configuration.
    """

    offer_id: str
    variants: Mapping[str, Variant]
    presented: Mapping[str, MediaQoS]
    cost: Money

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", dict(self.variants))
        object.__setattr__(self, "presented", dict(self.presented))
        if not self.variants:
            raise OfferError("a system offer needs at least one variant")
        if set(self.variants) != set(self.presented):
            raise OfferError(
                "variants and presented QoS must cover the same monomedia"
            )
        for monomedia_id, variant in self.variants.items():
            if variant.monomedia_id != monomedia_id:
                raise OfferError(
                    f"variant {variant.variant_id!r} keyed under wrong "
                    f"monomedia {monomedia_id!r}"
                )

    # -- views -------------------------------------------------------------------

    @property
    def monomedia_ids(self) -> tuple[str, ...]:
        return tuple(self.variants)

    @property
    def variant_ids(self) -> tuple[str, ...]:
        return tuple(v.variant_id for v in self.variants.values())

    def qos_points(self) -> tuple[MediaQoS, ...]:
        """Presented QoS of every monomedia — the OIF summation input."""
        return tuple(self.presented.values())

    def servers_used(self) -> frozenset[str]:
        return frozenset(v.server_id for v in self.variants.values())

    def variant_for(self, monomedia_id: str) -> Variant:
        try:
            return self.variants[monomedia_id]
        except KeyError:
            raise OfferError(
                f"offer {self.offer_id} covers no monomedia {monomedia_id!r}"
            ) from None

    # -- §5 comparisons -------------------------------------------------------------

    def qos_satisfies(self, bound: MMProfile) -> bool:
        """Every monomedia's presented QoS meets the bound of its medium
        (media the bound does not constrain pass trivially)."""
        for monomedia_id, qos in self.presented.items():
            medium_bound = bound.qos_for(qos.medium)
            if medium_bound is not None and not qos.satisfies(medium_bound):
                return False
        return True

    def qos_violations(self, bound: MMProfile) -> dict[str, tuple[str, ...]]:
        """Violated parameter names per monomedia id."""
        violations: dict[str, tuple[str, ...]] = {}
        for monomedia_id, qos in self.presented.items():
            medium_bound = bound.qos_for(qos.medium)
            if medium_bound is None:
                continue
            bad = qos.violated_parameters(medium_bound)
            if bad:
                violations[monomedia_id] = bad
        return violations

    def cost_within(self, ceiling: Money) -> bool:
        return self.cost <= ceiling

    def __str__(self) -> str:
        quality = ", ".join(
            f"{mid.rsplit('.', 1)[-1]}={qos}" for mid, qos in self.presented.items()
        )
        return f"{self.offer_id}[{quality} @ {self.cost}]"


def _merge_worst(a: MediaQoS, b: MediaQoS) -> MediaQoS:
    """Component-wise worst of two same-medium QoS points (used when a
    document carries several monomedia of one medium and the user offer
    must summarise them in a single per-medium slot).

    Ordered parameters take the minimum; a language survives only when
    both agree, else it is ``Language.NONE``.  When one operand already
    is that worst point it is returned as is, so a new point is built
    (and validated) only when each operand is worse somewhere.
    """
    if type(a) is not type(b):
        raise OfferError(
            f"cannot merge {type(a).__name__} with {type(b).__name__}"
        )
    worst: dict[str, object] = {}
    a_is_worst = b_is_worst = True
    for name in a.__slots__:
        mine, theirs = getattr(a, name), getattr(b, name)
        if isinstance(mine, Language):
            value = mine if mine == theirs else Language.NONE
        else:
            value = theirs if theirs < mine else mine
        worst[name] = value
        a_is_worst = a_is_worst and value == mine
        b_is_worst = b_is_worst and value == theirs
    if a_is_worst:
        return a
    if b_is_worst:
        return b
    return type(a)(**worst)


def derive_user_offer(
    offer: SystemOffer, time: TimeProfile | None = None
) -> MMProfile:
    """Map a system offer to the user offer shown in the information
    window (§4 Definition 2, §8 Figure 6)."""
    per_medium: dict[Medium, MediaQoS] = {}
    for qos in offer.presented.values():
        existing = per_medium.get(qos.medium)
        per_medium[qos.medium] = (
            qos if existing is None else _merge_worst(existing, qos)
        )
    return MMProfile(
        cost=offer.cost,
        time=time or TimeProfile(),
        **{medium.value: qos for medium, qos in per_medium.items()},
    )
