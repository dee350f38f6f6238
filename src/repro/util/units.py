"""Unit-safe helpers for the quantities the paper manipulates.

The negotiation procedure mixes four kinds of quantities:

* **bit rates** (Section 6: ``maxBitRate``, ``avgBitRate``) — stored as
  bits per second (``float``);
* **money** (Section 7: cost tables, ``CostDoc``) — stored as dollars;
* **time** (Section 3: time profile; Section 8: ``choicePeriod``) —
  stored as seconds;
* **data sizes** (block/frame/sample lengths) — stored as bits.

Rather than a heavyweight unit system we provide conversion constants,
constructor helpers that validate sign/finiteness, and a tiny
:class:`Money` value type with exact cent arithmetic (floating dollars
would accumulate rounding error across the per-monomedia cost sums of
Eq. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import UnitError

__all__ = [
    "KILO",
    "MEGA",
    "GIGA",
    "bits",
    "bps",
    "kbps",
    "seconds",
    "ms",
    "Money",
    "dollars",
    "format_bitrate",
    "format_size",
]

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000


def _non_negative_finite(value: float, what: str) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise UnitError(f"{what} must be finite, got {value!r}")
    if value < 0:
        raise UnitError(f"{what} must be non-negative, got {value!r}")
    return value


# -- data sizes (canonical unit: bits) --------------------------------------

def bits(value: float) -> float:
    """Validate a size expressed in bits."""
    return _non_negative_finite(value, "size in bits")


# -- bit rates (canonical unit: bits per second) -----------------------------

def bps(value: float) -> float:
    """Validate a rate expressed in bits per second."""
    return _non_negative_finite(value, "bit rate")


def kbps(value: float) -> float:
    """Convert kilobits per second to bits per second."""
    return bps(value) * KILO


# -- time (canonical unit: seconds) ------------------------------------------

def seconds(value: float) -> float:
    """Validate a duration expressed in seconds."""
    return _non_negative_finite(value, "duration")


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return seconds(value) / 1000.0


# -- money --------------------------------------------------------------------

@dataclass(frozen=True, slots=True, order=True)
class Money:
    """Exact dollar amount held as integer cents.

    Supports the arithmetic the cost model of Section 7 needs: addition,
    scaling by a duration or a rate, and comparison against user cost
    limits.  Negative amounts are permitted (they appear transiently when
    computing cost *differences* between offers) but the public cost
    tables never produce them.
    """

    cents: int

    @classmethod
    def of(cls, amount: Union[int, float, "Money"]) -> "Money":
        """Build from a dollar amount, rounding to the nearest cent."""
        if isinstance(amount, Money):
            return amount
        value = float(amount)
        if math.isnan(value) or math.isinf(value):
            raise UnitError(f"money amount must be finite, got {value!r}")
        return cls(round(value * 100))

    @classmethod
    def zero(cls) -> "Money":
        return cls(0)

    @property
    def amount(self) -> float:
        """The amount in dollars as a float (for display / weighting)."""
        return self.cents / 100.0

    def __add__(self, other: "Money") -> "Money":
        if not isinstance(other, Money):
            return NotImplemented
        return Money(self.cents + other.cents)

    def __sub__(self, other: "Money") -> "Money":
        if not isinstance(other, Money):
            return NotImplemented
        return Money(self.cents - other.cents)

    def __mul__(self, factor: float) -> "Money":
        if isinstance(factor, Money):
            raise UnitError("cannot multiply money by money")
        return Money(round(self.cents * float(factor)))

    __rmul__ = __mul__

    def __neg__(self) -> "Money":
        return Money(-self.cents)

    def __bool__(self) -> bool:
        return self.cents != 0

    def __str__(self) -> str:
        sign = "-" if self.cents < 0 else ""
        whole, part = divmod(abs(self.cents), 100)
        return f"{sign}${whole}.{part:02d}"


def dollars(amount: Union[int, float, Money]) -> Money:
    """Shorthand constructor matching the paper's ``$`` notation."""
    return Money.of(amount)


# -- human-readable formatting -------------------------------------------------

def format_bitrate(rate_bps: float) -> str:
    """Render a bit rate with an adaptive unit (bps / kbps / Mbps / Gbps)."""
    rate_bps = float(rate_bps)
    for bound, suffix in ((GIGA, "Gbps"), (MEGA, "Mbps"), (KILO, "kbps")):
        if abs(rate_bps) >= bound:
            return f"{rate_bps / bound:.2f} {suffix}"
    return f"{rate_bps:.0f} bps"


def format_size(size_bits: float) -> str:
    """Render a data size with an adaptive unit (bits / kbit / Mbit / Gbit)."""
    size_bits = float(size_bits)
    for bound, suffix in ((GIGA, "Gbit"), (MEGA, "Mbit"), (KILO, "kbit")):
        if abs(size_bits) >= bound:
            return f"{size_bits / bound:.2f} {suffix}"
    return f"{size_bits:.0f} bit"

