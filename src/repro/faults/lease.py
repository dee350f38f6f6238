"""Lease-based reservation lifetimes.

Every committed bundle is granted a lease; an active session renews it
on each monitoring sweep.  When a release is lost (a crashed holder, a
swallowed release RPC — the LOST_RELEASE fault) the lease stops being
renewed, expires, and the reaper returns the capacity.  This bounds the
damage of any failure on the release path: no reservation can leak
forever, including the ``choicePeriod`` expiry path under faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..util.errors import LeaseError
from ..util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.commitment import ReservationBundle

__all__ = ["Lease", "LeaseManager"]


@dataclass(slots=True)
class Lease:
    """One bundle's time-bounded right to hold its resources."""

    holder: str
    bundle: "ReservationBundle"
    granted_at: float
    ttl_s: float
    expires_at: float
    renewals: int = 0
    zombie: bool = False  # a release was attempted but resources remain

    def expired(self, now: float) -> bool:
        return now >= self.expires_at - 1e-12

    def renew(self, now: float) -> None:
        self.expires_at = now + self.ttl_s
        self.renewals += 1


class LeaseManager:
    """The lease table, keyed by reservation holder."""

    def __init__(self, *, ttl_s: float = 300.0) -> None:
        self.ttl_s = check_positive(ttl_s, "ttl_s")
        self._leases: dict[str, Lease] = {}
        self.reaped = 0  # lifetime count of expired leases collected

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, holder: str) -> bool:
        return holder in self._leases

    def get(self, holder: str) -> "Lease | None":
        return self._leases.get(holder)

    def leases(self) -> tuple[Lease, ...]:
        return tuple(self._leases.values())

    def grant(
        self, holder: str, bundle: "ReservationBundle", now: float
    ) -> Lease:
        if holder in self._leases:
            raise LeaseError(f"holder {holder!r} already has a lease")
        lease = Lease(
            holder=holder,
            bundle=bundle,
            granted_at=now,
            ttl_s=self.ttl_s,
            expires_at=now + self.ttl_s,
        )
        self._leases[holder] = lease
        return lease

    def renew(self, holder: str, now: float) -> None:
        lease = self._leases.get(holder)
        if lease is None:
            raise LeaseError(f"no lease for holder {holder!r}")
        lease.renew(now)

    def renew_if_held(self, holder: str, now: float) -> bool:
        lease = self._leases.get(holder)
        if lease is None:
            return False
        lease.renew(now)
        return True

    def drop(self, holder: str) -> "Lease | None":
        """Remove a lease after a verified-clean release."""
        return self._leases.pop(holder, None)

    def mark_zombie(self, holder: str) -> None:
        """A release ran but left resources behind (lost-release fault);
        keep the lease so the reaper retries, and stop waiting for the
        normal expiry — the holder is gone."""
        lease = self._leases.get(holder)
        if lease is not None:
            lease.zombie = True

    def due(self, now: float) -> tuple[Lease, ...]:
        """Leases the reaper should collect: expired or zombie."""
        return tuple(
            lease
            for lease in self._leases.values()
            if lease.zombie or lease.expired(now)
        )

    def collect(self, lease: Lease) -> None:
        """The reaper freed the lease's resources."""
        if self._leases.pop(lease.holder, None) is not None:
            self.reaped += 1

    def __repr__(self) -> str:
        return f"LeaseManager({len(self._leases)} held, ttl={self.ttl_s:g}s)"
