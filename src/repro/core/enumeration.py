"""Feasible system-offer enumeration (paper §4 steps 2–3).

Step 2 filters each monomedia's variants against the client machine
(decoder compatibility); the *feasible system offers* are then the
cartesian product of the surviving per-monomedia variant lists, each
offer priced by the §7 cost model and annotated with its presented QoS.

The product space can be large (variants^monomedia); :class:`OfferSpace`
therefore precomputes everything *per variant* that does not depend on
the user (presented QoS, flow spec, cost share — all separable across
monomedia) together with the shape of the product, once, when it is
built, and only materialises offers on demand.  Steps 3–4
(:mod:`repro.core.classification`, :mod:`repro.core.stream`) score the
per-axis columns directly and materialise only what they return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..client.machine import ClientMachine
from ..documents.document import Document
from ..documents.monomedia import Variant
from ..documents.quality import MediaQoS
from ..network.qosparams import FlowSpec
from ..network.transport import GuaranteeType
from ..util.errors import OfferError
from ..util.readonly import ReadOnlyDict
from ..util.units import Money
from .cost import CostModel
from .mapping import QoSMapper
from .offers import SystemOffer

__all__ = ["VariantChoice", "OfferSpace", "build_offer_space"]


@dataclass(frozen=True, slots=True)
class VariantChoice:
    """One feasible variant with everything negotiation needs about it."""

    variant: Variant
    presented: MediaQoS
    spec: FlowSpec
    network_cents: int
    server_cents: int

    @property
    def cost_cents(self) -> int:
        return self.network_cents + self.server_cents


class OfferSpace:
    """The feasible offer product space of one (document, client) pair."""

    def __init__(
        self,
        document: Document,
        choices: Mapping[str, Sequence[VariantChoice]],
        copyright_cents: int,
        rejected: Mapping[str, Sequence[Variant]],
    ) -> None:
        self.document = document
        self._axes: dict[str, tuple[VariantChoice, ...]] = {
            monomedia_id: tuple(options)
            for monomedia_id, options in choices.items()
        }
        self.copyright_cents = int(copyright_cents)
        self.rejected: dict[str, tuple[Variant, ...]] = {
            monomedia_id: tuple(variants)
            for monomedia_id, variants in rejected.items()
        }
        # O(1) spec lookups keyed by (monomedia_id, variant_id): variant
        # ids are only unique *within* a monomedia, so a flat variant-id
        # scan would return the wrong FlowSpec when two monomedia share
        # an id (see spec_for).
        self._spec_index: dict[tuple[str, str], FlowSpec] = {
            (choice.variant.monomedia_id, choice.variant.variant_id): choice.spec
            for options in self._axes.values()
            for choice in options
        }
        # The space never changes once built, so its shape is worked
        # out here, once, and read by every request that plans over it
        # (a cached space serves thousands): the axes in document
        # order, their sizes, the mixed-radix place value of each axis
        # in a flat index, and per axis the columns steps 3-4 score —
        # each variant's cost share in cents and its presented QoS.
        self.monomedia_ids: tuple[str, ...] = tuple(self._axes)
        self.axes: tuple[tuple[VariantChoice, ...], ...] = tuple(
            self._axes.values()
        )
        self.sizes: tuple[int, ...] = tuple(len(axis) for axis in self.axes)
        self.radices: tuple[int, ...] = _suffix_products(self.sizes)
        # Monomedia left with zero feasible variants: non-empty means
        # FAILEDWITHOUTOFFER (§4 step 2).
        self.empty_axes: tuple[str, ...] = tuple(
            mid for mid, size in zip(self.monomedia_ids, self.sizes) if not size
        )
        self.is_empty: bool = bool(self.empty_axes) or not self.axes
        self.offer_count: int = 0 if self.is_empty else math.prod(self.sizes)
        self.cents_axes: tuple[tuple[int, ...], ...] = tuple(
            tuple(choice.cost_cents for choice in axis) for axis in self.axes
        )
        self.presented_axes: tuple[tuple[MediaQoS, ...], ...] = tuple(
            tuple(choice.presented for choice in axis) for axis in self.axes
        )
        # The cheapest and the dearest offer's total cents (steps 3-4
        # clamp a budget into [cheapest - 1, dearest]).
        self.cost_span: tuple[int, int] = (
            (self.copyright_cents, self.copyright_cents) if self.is_empty
            else (
                self.copyright_cents + sum(map(min, self.cents_axes)),
                self.copyright_cents + sum(map(max, self.cents_axes)),
            )
        )
        # Step 2's account of the space: variants kept and dropped,
        # and the drops per monomedia (sorted, non-zero only).
        self.kept_variants: int = sum(self.sizes)
        self.dropped_variants: int = sum(map(len, self.rejected.values()))
        self.drop_reasons: ReadOnlyDict = ReadOnlyDict(
            (monomedia_id, len(variants))
            for monomedia_id, variants in sorted(self.rejected.items())
            if variants
        )
        # The score columns, the classified orders and the user offers
        # requested over this space, each keyed by what selects it;
        # kept and bounded by repro.core.stream.
        self.columns_memo: dict[tuple, Any] = {}
        self.order_memo: dict[tuple, Any] = {}
        self.user_offers: dict[tuple, Any] = {}

    # -- shape -------------------------------------------------------------------

    def axis(self, monomedia_id: str) -> tuple[VariantChoice, ...]:
        try:
            return self._axes[monomedia_id]
        except KeyError:
            raise OfferError(f"no axis for monomedia {monomedia_id!r}") from None

    def axis_sizes(self) -> dict[str, int]:
        return dict(zip(self.monomedia_ids, self.sizes))

    # -- materialisation ------------------------------------------------------------

    def _offer_from_choices(
        self, index: int, picked: tuple[VariantChoice, ...]
    ) -> SystemOffer:
        cents = self.copyright_cents + sum(c.cost_cents for c in picked)
        return SystemOffer(
            offer_id=f"offer-{index}",
            variants={
                c.variant.monomedia_id: c.variant for c in picked
            },
            presented={
                c.variant.monomedia_id: c.presented for c in picked
            },
            cost=Money(cents),
        )

    def iter_offers(self) -> Iterator[SystemOffer]:
        """Deterministic enumeration (last monomedia axis varies
        fastest); ids are the enumeration index."""
        if self.is_empty:
            return
        for index, picked in enumerate(itertools.product(*self.axes), start=1):
            yield self._offer_from_choices(index, picked)

    def offer_at(self, flat_index: int) -> SystemOffer:
        """Materialise the offer at one flat product index (0-based,
        same order as :meth:`iter_offers`) — the vectorized classifier
        hands back indices, this turns them into offers."""
        if self.is_empty:
            raise OfferError("offer space is empty")
        if not (0 <= flat_index < self.offer_count):
            raise OfferError(
                f"flat index {flat_index} outside [0, {self.offer_count})"
            )
        picked: list[VariantChoice] = []
        remainder = flat_index
        for options, radix in zip(self.axes, self.radices):
            digit, remainder = divmod(remainder, radix)
            picked.append(options[digit])
        return self._offer_from_choices(flat_index + 1, tuple(picked))

    def materialize(self, max_offers: "int | None" = None) -> list[SystemOffer]:
        offers = []
        for offer in self.iter_offers():
            offers.append(offer)
            if max_offers is not None and len(offers) >= max_offers:
                break
        return offers

    def spec_for(self, variant: Variant) -> FlowSpec:
        """The precomputed flow spec of one feasible variant.

        Keyed by ``(monomedia_id, variant_id)``: two monomedia may
        legally carry variants with the same variant id, and matching on
        the id alone would silently hand back the other axis's spec.
        """
        try:
            return self._spec_index[(variant.monomedia_id, variant.variant_id)]
        except KeyError:
            raise OfferError(
                f"variant {variant.variant_id!r} of monomedia "
                f"{variant.monomedia_id!r} not in offer space"
            ) from None


def _suffix_products(sizes: Sequence[int]) -> tuple[int, ...]:
    """For mixed-radix decoding: products of the sizes *after* each
    axis (last axis varies fastest in ``itertools.product``)."""
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return tuple(out)


def build_offer_space(
    document: Document,
    client: ClientMachine,
    cost_model: CostModel,
    *,
    mapper: QoSMapper | None = None,
    guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
    variant_filter: "Callable[[Variant], bool] | None" = None,
) -> OfferSpace:
    """Run §4 step 2 (compatibility filtering) and precompute the §4
    step 3 classification inputs for every surviving variant.

    ``variant_filter`` adds caller-defined feasibility rules on top of
    decoder compatibility (e.g. the security floor of
    :mod:`repro.core.preferences`); filtered variants join the rejected
    set like any undecodable one.
    """
    mapper = mapper or QoSMapper()
    choices: dict[str, list[VariantChoice]] = {}
    rejected: dict[str, list[Variant]] = {}
    for component in document.components:
        axis: list[VariantChoice] = []
        dropped: list[Variant] = []
        for variant in component.variants:
            if not client.can_decode(variant) or (
                variant_filter is not None and not variant_filter(variant)
            ):
                dropped.append(variant)
                continue
            presented = client.presented_qos(variant)
            spec = mapper.flow_spec(variant)
            item_cost = cost_model.monomedia_cost(variant, spec, guarantee)
            axis.append(
                VariantChoice(
                    variant=variant,
                    presented=presented,
                    spec=spec,
                    network_cents=item_cost.network_cost.cents,
                    server_cents=item_cost.server_cost.cents,
                )
            )
        choices[component.monomedia_id] = axis
        rejected[component.monomedia_id] = dropped
    return OfferSpace(
        document=document,
        choices=choices,
        copyright_cents=document.copyright_cost.cents,
        rejected=rejected,
    )
