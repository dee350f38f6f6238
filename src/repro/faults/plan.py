"""Composable fault plans for chaos experiments.

A :class:`FaultPlan` is a seed plus an ordered list of :class:`FaultSpec`
entries; each spec describes one injectable failure — a server crash
window, a link flap, injected admission latency, a transient refusal, or
a lost (swallowed) release.  Plans are pure data: the
:class:`~repro.faults.injector.FaultInjector` interprets them against a
live deployment, so the same plan can be replayed against any scenario.

Specs also have a compact string form for the CLI
(``kind:target:start:duration[:value]``), parsed by
:func:`parse_fault_spec`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from ..util.errors import ValidationError
from ..util.validation import check_fraction, check_non_negative

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "parse_fault_spec"]


class FaultKind(enum.Enum):
    """The failure modes the injector can produce."""

    SERVER_CRASH = "server-crash"
    """The server machine is down for the window: admissions raise
    :class:`~repro.util.errors.ServerCrashedError`, every held stream is
    violated, and on restart the server's reservation ledger is wiped."""

    SLOW_ADMISSION = "slow-admission"
    """Admissions take ``value`` extra seconds.  Latency above the
    injector's per-attempt timeout surfaces as a retryable
    :class:`~repro.util.errors.FaultTimeoutError`."""

    TRANSIENT_REFUSAL = "transient-refusal"
    """Admissions fail with a retryable
    :class:`~repro.util.errors.TransientFaultError`; with ``count`` set,
    only the first ``count`` calls in the window are refused."""

    LINK_FLAP = "link-flap"
    """The link loses ``value`` of its capacity for the window (1.0 =
    fully down), then heals.  Overlapping flaps on one link, like
    overlapping brownouts on one server, compose by max severity."""

    SERVER_BROWNOUT = "server-brownout"
    """The server loses ``value`` of its deliverable capacity for the
    window (a failing disk, background maintenance, a noisy neighbour —
    not a crash: the machine keeps serving what still fits).  The
    shrunken round budget sheds the latest admissions, flooding the
    monitor with violations — the mass-renegotiation storm the
    :mod:`repro.storm` layer exists to survive.  Heals at window end.
    Default severity 0.5."""

    LOST_RELEASE = "lost-release"
    """A release call is silently swallowed: the reservation leaks until
    the lease reaper recovers it."""

    MANAGER_CRASH = "crash-manager"
    """The QoS manager itself dies, raising
    :class:`~repro.util.errors.ManagerCrashError` at the ``value``-th
    crash opportunity (default: the first) inside the window — a crash
    opportunity is any journal append or admission attempt, i.e. exactly
    the points of steps 5–6 where a real process can die.  Recovery is
    by journal replay, not retry.  ``target_id`` is ``manager`` (or
    ``*``)."""


_ALIASES = {
    "crash": FaultKind.SERVER_CRASH,
    "server-crash": FaultKind.SERVER_CRASH,
    "slow": FaultKind.SLOW_ADMISSION,
    "slow-admission": FaultKind.SLOW_ADMISSION,
    "refuse": FaultKind.TRANSIENT_REFUSAL,
    "transient-refusal": FaultKind.TRANSIENT_REFUSAL,
    "flap": FaultKind.LINK_FLAP,
    "link-flap": FaultKind.LINK_FLAP,
    "brownout": FaultKind.SERVER_BROWNOUT,
    "server-brownout": FaultKind.SERVER_BROWNOUT,
    "lost-release": FaultKind.LOST_RELEASE,
    "crash-manager": FaultKind.MANAGER_CRASH,
    "manager-crash": FaultKind.MANAGER_CRASH,
}

_CALL_LEVEL = frozenset(
    {
        FaultKind.SLOW_ADMISSION,
        FaultKind.TRANSIENT_REFUSAL,
        FaultKind.LOST_RELEASE,
        FaultKind.MANAGER_CRASH,
    }
)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One injectable failure.

    ``value`` is kind-specific: injected latency in seconds for
    SLOW_ADMISSION, severity fraction for LINK_FLAP (default 1.0 = full
    outage) and SERVER_BROWNOUT (default 0.5), refusal count for
    TRANSIENT_REFUSAL (``None`` = every call in the window).  ``probability`` gates call-level faults with a
    seeded draw (1.0 = always fire).
    """

    kind: FaultKind
    target_id: str
    start_s: float = 0.0
    duration_s: "float | None" = None
    value: "float | None" = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.target_id:
            raise ValidationError("fault target_id must be non-empty")
        check_non_negative(self.start_s, "start_s")
        if self.duration_s is not None:
            check_non_negative(self.duration_s, "duration_s")
        check_fraction(self.probability, "probability")
        if self.kind is FaultKind.LINK_FLAP and self.value is not None:
            check_fraction(self.value, "flap severity")
        if self.kind is FaultKind.SERVER_BROWNOUT:
            if self.value is not None:
                check_fraction(self.value, "brownout severity")
            if self.value is not None and self.value == 0.0:
                raise ValidationError(
                    "brownout severity 0 is a no-op; omit the fault instead"
                )
        if self.kind is FaultKind.SLOW_ADMISSION and (
            self.value is None or self.value <= 0
        ):
            raise ValidationError(
                "slow-admission needs a positive latency value"
            )
        if self.kind is FaultKind.MANAGER_CRASH and (
            self.value is not None and self.value < 1
        ):
            raise ValidationError(
                "crash-manager value (the k-th crash opportunity) must be >= 1"
            )

    @property
    def end_s(self) -> "float | None":
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    def active_at(self, now: float) -> bool:
        """Is the fault window open at simulated time ``now``?"""
        if now < self.start_s - 1e-12:
            return False
        end = self.end_s
        return end is None or now < end - 1e-12

    @property
    def is_call_level(self) -> bool:
        """Fires on individual admit/release calls (vs a timed state
        change scheduled on the event loop)."""
        return self.kind in _CALL_LEVEL

    def describe(self) -> str:
        window = (
            f"t={self.start_s:g}s.."
            + (f"{self.end_s:g}s" if self.end_s is not None else "∞")
        )
        extra = f" value={self.value:g}" if self.value is not None else ""
        return f"{self.kind.value} on {self.target_id} [{window}]{extra}"


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seed plus the faults to inject — everything a chaos run needs
    to be exactly reproducible."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> "Iterator[FaultSpec]":
        return iter(self.faults)

    def for_kind(self, kind: FaultKind) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if f.kind is kind)

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: (empty)"
        lines = [f"fault plan (seed {self.seed}):"]
        lines.extend(f"  - {spec.describe()}" for spec in self.faults)
        return "\n".join(lines)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI form ``kind:target:start:duration[:value]``.

    ``duration`` may be ``-`` for an open-ended window.  Examples::

        crash:server-a:10:30        # server-a down from t=10 for 30s
        flap:L-client-1:40:20:0.9   # link loses 90% capacity t=40..60
        brownout:server-a:50:60:0.4 # server-a loses 40% capacity t=50..110
        slow:server-b:0:60:2.5      # +2.5s admission latency t=0..60
        refuse:server-a:0:-:2       # first 2 admissions refused
        lost-release:server-a:0:120 # releases swallowed t=0..120
    """
    parts = text.split(":")
    if len(parts) < 2:
        raise ValidationError(
            f"fault spec {text!r}: expected kind:target[:start[:duration[:value]]]"
        )
    kind_text = parts[0].strip().lower()
    kind = _ALIASES.get(kind_text)
    if kind is None:
        raise ValidationError(
            f"unknown fault kind {kind_text!r}; have {sorted(_ALIASES)}"
        )
    target = parts[1].strip()

    def number(index: int, default: "float | None") -> "float | None":
        if len(parts) <= index or parts[index].strip() in ("", "-"):
            return default
        try:
            return float(parts[index])
        except ValueError:
            raise ValidationError(
                f"fault spec {text!r}: field {index} is not a number"
            ) from None

    start = number(2, 0.0) or 0.0
    duration = number(3, None)
    value = number(4, None)
    return FaultSpec(
        kind=kind,
        target_id=target,
        start_s=start,
        duration_s=duration,
        value=value,
    )
