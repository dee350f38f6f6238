"""Small validation helpers shared by the value objects.

Each helper raises :class:`~repro.util.errors.ValidationError` with a
message naming the offending field, so constructor call sites stay terse.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, TypeVar

from .errors import ValidationError

__all__ = [
    "check_range",
    "check_at_least",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_name",
    "check_non_empty",
]

T = TypeVar("T")


# These helpers sit on the admission/reservation hot path (every link
# reserve and flow-spec construction runs through them), so the finite
# check is inlined — one ``math.isfinite`` call, no helper indirection.
_isfinite = math.isfinite


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not _isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return value


def check_range(
    value: float,
    lo: float,
    hi: float,
    what: str,
    *,
    integer: bool = False,
) -> float:
    """Check ``lo <= value <= hi``; optionally require an integral value."""
    value = float(value)
    if not _isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    if integer and value != int(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not (lo <= value <= hi):
        raise ValidationError(f"{what} must be in [{lo}, {hi}], got {value!r}")
    return int(value) if integer else value


def check_at_least(
    value: float, lo: float, what: str, *, integer: bool = False
) -> float:
    """Check ``value >= lo`` (finite; optionally integral).

    The dedicated lower-bound check exists because a bare ``value < lo``
    comparison silently passes NaN — ``NaN < lo`` is False — which is
    exactly the hole it replaces.
    """
    value = float(value)
    if not _isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    if integer and value != int(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < lo:
        raise ValidationError(f"{what} must be >= {lo:g}, got {value!r}")
    return int(value) if integer else value


def check_positive(value: float, what: str) -> float:
    value = float(value)
    if not _isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{what} must be positive, got {value!r}")
    return value


def check_non_negative(value: float, what: str) -> float:
    value = float(value)
    if not _isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    if value < 0:
        raise ValidationError(f"{what} must be non-negative, got {value!r}")
    return value


def check_fraction(value: float, what: str) -> float:
    """Check that ``value`` lies in the closed unit interval."""
    return check_range(value, 0.0, 1.0, what)


def check_name(value: Any, what: str) -> str:
    """Check a non-empty identifier string without control characters."""
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(f"{what} must be a non-empty string, got {value!r}")
    if any(ord(ch) < 32 for ch in value):
        raise ValidationError(f"{what} contains control characters: {value!r}")
    return value


def check_non_empty(seq: Sequence[T], what: str) -> Sequence[T]:
    if len(seq) == 0:
        raise ValidationError(f"{what} must not be empty")
    return seq
