"""Cost computation (paper §7).

"To compute the network cost, we assume the existence of a cost table
which stores the cost (per time unit) for each value of throughput.
Since it is not possible to consider all possible values of throughput
(infinite list), only a range of throughput classes are considered.
Similar tables are used to compute the cost to use the server
resources."  Eq. 1:

    CostDoc = CostCop + Σᵢ (CostNetᵢ + CostSerᵢ),
    CostNetᵢ = CostNet_{class(i)} × Dᵢ   (likewise CostSerᵢ)

where ``Dᵢ`` is the playout length of monomedia *i* and ``class(i)`` the
throughput class of its stream.  The guarantee type enters through the
billed rate: guaranteed service bills the peak rate, best-effort the
average (§7: "the type of guarantees, e.g. best-effort or guaranteed
service"), with a configurable tariff discount on top.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..documents.monomedia import Variant
from ..network.qosparams import FlowSpec
from ..network.transport import GuaranteeType
from ..util.errors import ValidationError
from ..util.units import Money, dollars, format_bitrate
from ..util.validation import check_fraction, check_positive

__all__ = [
    "ThroughputClass",
    "CostTable",
    "MonomediaCost",
    "CostBreakdown",
    "CostModel",
    "default_network_table",
    "default_server_table",
    "default_cost_model",
]


@dataclass(frozen=True, slots=True)
class ThroughputClass:
    """One row of a §7 cost table: all rates up to ``ceiling_bps`` are
    billed ``rate_per_second`` dollars per second."""

    ceiling_bps: float
    rate_per_second: float

    def __post_init__(self) -> None:
        check_positive(self.ceiling_bps, "ceiling_bps")
        if self.rate_per_second < 0:
            raise ValidationError(
                f"rate_per_second must be non-negative, got {self.rate_per_second}"
            )

    def __str__(self) -> str:
        return f"<= {format_bitrate(self.ceiling_bps)} @ ${self.rate_per_second}/s"


class CostTable:
    """An ordered list of throughput classes with O(log n) lookup."""

    def __init__(self, classes: Sequence[ThroughputClass]) -> None:
        if not classes:
            raise ValidationError("a cost table needs at least one class")
        ordered = sorted(classes, key=lambda c: c.ceiling_bps)
        ceilings = [c.ceiling_bps for c in ordered]
        if len(set(ceilings)) != len(ceilings):
            raise ValidationError("duplicate class ceilings in cost table")
        rates = [c.rate_per_second for c in ordered]
        if any(b < a for a, b in zip(rates, rates[1:])):
            raise ValidationError(
                "cost must be non-decreasing in throughput class"
            )
        self._classes = tuple(ordered)
        self._ceilings = tuple(ceilings)

    @property
    def classes(self) -> tuple[ThroughputClass, ...]:
        return self._classes

    def classify(self, rate_bps: float) -> ThroughputClass:
        """The smallest class whose ceiling covers ``rate_bps``."""
        check_positive(rate_bps, "rate_bps")
        index = bisect.bisect_left(self._ceilings, rate_bps)
        if index >= len(self._classes):
            raise ValidationError(
                f"rate {format_bitrate(rate_bps)} exceeds the top throughput "
                f"class ({format_bitrate(self._ceilings[-1])})"
            )
        return self._classes[index]

    def cost_per_second(self, rate_bps: float) -> float:
        return self.classify(rate_bps).rate_per_second

    def __len__(self) -> int:
        return len(self._classes)


@dataclass(frozen=True, slots=True)
class MonomediaCost:
    """One Eq. 1 summand, kept decomposed for the cost window."""

    monomedia_id: str
    variant_id: str
    billed_rate_bps: float
    duration_s: float
    network_cost: Money
    server_cost: Money

    @property
    def total(self) -> Money:
        return self.network_cost + self.server_cost


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """The full Eq. 1 decomposition of one system offer's price."""

    items: tuple[MonomediaCost, ...]
    copyright_cost: Money

    @property
    def network_total(self) -> Money:
        total = Money.zero()
        for item in self.items:
            total = total + item.network_cost
        return total

    @property
    def server_total(self) -> Money:
        total = Money.zero()
        for item in self.items:
            total = total + item.server_cost
        return total

    @property
    def total(self) -> Money:
        """CostDoc = CostCop + Σ (CostNetᵢ + CostSerᵢ)."""
        return self.copyright_cost + self.network_total + self.server_total

    def rows(self) -> list[tuple]:
        """Table rows for rendering (monomedia, variant, rate, net, server)."""
        return [
            (
                item.monomedia_id,
                item.variant_id,
                format_bitrate(item.billed_rate_bps),
                str(item.network_cost),
                str(item.server_cost),
                str(item.total),
            )
            for item in self.items
        ]


@dataclass(frozen=True, slots=True)
class CostModel:
    """Network + server cost tables plus tariff policy."""

    network: CostTable
    server: CostTable
    best_effort_discount: float = 0.5  # fraction knocked off the tariff
    # The tariff digest, written once by
    # ``repro.perf.fingerprint.cost_model_fingerprint``.  The model is
    # frozen and its tables hold tuples, so it never goes stale.
    _fingerprint: "str | None" = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        check_fraction(self.best_effort_discount, "best_effort_discount")

    def monomedia_cost(
        self,
        variant: Variant,
        spec: FlowSpec,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
    ) -> MonomediaCost:
        """Cost of delivering one variant for its playout duration."""
        billed_rate = guarantee.billable_rate(spec)
        scale = (
            1.0
            if guarantee is GuaranteeType.GUARANTEED
            else 1.0 - self.best_effort_discount
        )
        duration = variant.duration_s
        network = dollars(
            self.network.cost_per_second(billed_rate) * duration * scale
        )
        server = dollars(
            self.server.cost_per_second(billed_rate) * duration * scale
        )
        return MonomediaCost(
            monomedia_id=variant.monomedia_id,
            variant_id=variant.variant_id,
            billed_rate_bps=billed_rate,
            duration_s=duration,
            network_cost=network,
            server_cost=server,
        )

    def document_cost(
        self,
        variants_and_specs: Iterable[tuple[Variant, FlowSpec]],
        copyright_cost: Money,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
    ) -> CostBreakdown:
        """Eq. 1 over a complete system offer."""
        items = tuple(
            self.monomedia_cost(variant, spec, guarantee)
            for variant, spec in variants_and_specs
        )
        return CostBreakdown(items=items, copyright_cost=copyright_cost)


def default_network_table() -> CostTable:
    """Mid-90s flavoured network tariff: ATM class ceilings from 64 kbps
    voice channels up to OC-3, superlinear in rate."""
    return CostTable(
        [
            ThroughputClass(64_000, 0.0002),
            ThroughputClass(256_000, 0.0006),
            ThroughputClass(1_000_000, 0.0015),
            ThroughputClass(2_000_000, 0.003),
            ThroughputClass(4_000_000, 0.006),
            ThroughputClass(8_000_000, 0.012),
            ThroughputClass(16_000_000, 0.024),
            ThroughputClass(34_000_000, 0.055),
            ThroughputClass(155_000_000, 0.25),
            ThroughputClass(622_000_000, 0.9),
        ]
    )


def default_server_table() -> CostTable:
    """Server resource tariff (disk + buffer occupancy scale with rate)."""
    return CostTable(
        [
            ThroughputClass(64_000, 0.0001),
            ThroughputClass(256_000, 0.0003),
            ThroughputClass(1_000_000, 0.0008),
            ThroughputClass(2_000_000, 0.0016),
            ThroughputClass(4_000_000, 0.0032),
            ThroughputClass(8_000_000, 0.0065),
            ThroughputClass(16_000_000, 0.013),
            ThroughputClass(34_000_000, 0.03),
            ThroughputClass(155_000_000, 0.13),
            ThroughputClass(622_000_000, 0.5),
        ]
    )


def default_cost_model() -> CostModel:
    return CostModel(
        network=default_network_table(),
        server=default_server_table(),
        best_effort_discount=0.5,
    )
