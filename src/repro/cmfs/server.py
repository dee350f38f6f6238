"""The media server: admission + reservation ledger + scheduler.

One :class:`MediaServer` is one server machine of §4's "set of server
machines".  The QoS manager's resource-commitment step calls
:meth:`admit` / :meth:`release`; the playout engine drives
:meth:`execute_round`; the adaptation experiments inject load spikes
with :meth:`set_degradation` (a degraded server sheds its most recent
streams exactly like an oversubscribed link does).

Beside the ledger the server keeps its :class:`ServerLoad` — the four
totals the admission rules read — so a question costs O(1) however
many streams are held.  The load is exact, not approximately equal: an
admission appends its terms (the same ``+`` a fresh pass would do
last), and anything that removes a stream drops the load, to be rebuilt
in ledger order by the next reader (:meth:`MediaServer._summed_ledger`).
Nothing is ever subtracted, and no call is skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter

from ..util.errors import (
    AdmissionError,
    ReservationError,
    ServerCrashedError,
    ValidationError,
)
from ..util.validation import check_fraction, check_name, check_positive
from .admission import (
    EMPTY_LOAD,
    AdmissionController,
    AdmissionDecision,
    ServerLoad,
)
from .disk import DiskModel
from .scheduler import RoundScheduler, SchedulingPolicy

__all__ = ["StreamReservation", "MediaServer"]

_RATE_OF = attrgetter("rate_bps")


@dataclass(frozen=True, slots=True)
class StreamReservation:
    """One admitted stream's hold on the server."""

    stream_id: str
    server_id: str
    variant_id: str
    rate_bps: float
    holder: str
    sequence: int  # admission order; later streams are shed first


class MediaServer:
    """A continuous-media file server machine."""

    def __init__(
        self,
        server_id: str,
        *,
        access_point: str | None = None,
        disk: DiskModel | None = None,
        admission: AdmissionController | None = None,
        scheduling: SchedulingPolicy = SchedulingPolicy.SCAN,
    ) -> None:
        self.server_id = check_name(server_id, "server_id")
        self.access_point = access_point or f"{server_id}-net"
        if disk is None:
            disk = admission.disk if admission is not None else DiskModel()
        self.disk = disk
        # The ledger's totals as the admission rules read them; None
        # when a stream has left since they were last summed.
        self._load: ServerLoad | None = None
        self.admission = admission or AdmissionController(disk=disk)
        self.scheduler = RoundScheduler(self.disk, scheduling)
        # Insertion order is admission order: ``sequence`` only grows
        # and entries are only ever appended or removed.
        self._streams: dict[str, StreamReservation] = {}
        self._sequence = itertools.count(1)
        self._degradation = 0.0
        # Opt-in: a degraded server also refuses *new* admissions that
        # would not fit its shrunken round budget.  Off by default — the
        # adaptation experiments rely on degradation only shedding held
        # streams; the storm scenario turns it on so mass renegotiation
        # cannot trivially re-admit onto the browned-out machine.
        self.degradation_limits_admission = False
        self._crashed = False
        # Thin fault-injection hook (see repro.faults.injector); None in
        # production paths so the happy path costs one identity check.
        self.fault_hook = None
        # Observability seam (see repro.telemetry): assign a hub and
        # admissions/releases are counted per server.
        self.telemetry = None

    # -- capacity state -----------------------------------------------------------

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @admission.setter
    def admission(self, controller: AdmissionController) -> None:
        """One machine, one disk: the controller's round inequality and
        the server's degraded budget must describe the same spindle."""
        if controller.disk != self.disk:
            raise ValidationError(
                f"{self.server_id}: admission controller models "
                f"{controller.disk}, the server {self.disk}"
            )
        self._admission = controller
        self._load = None  # to be re-totalled by this controller

    def _summed_ledger(self) -> ServerLoad:
        """The load rebuilt from the ledger in one pass, in ledger
        order — what :attr:`_load` equals whenever it is known."""
        return self._admission.extended(
            EMPTY_LOAD, map(_RATE_OF, self._streams.values())
        )

    def _held_load(self) -> ServerLoad:
        load = self._load
        if load is None:
            load = self._load = self._summed_ledger()
        return load

    def stream_rates(self) -> tuple[float, ...]:
        return tuple(s.rate_bps for s in self._streams.values())

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    @property
    def aggregate_rate_bps(self) -> float:
        return self._held_load().rate_bps

    @property
    def disk_utilization(self) -> float:
        return self._held_load().busy_s(self.disk) / self.disk.round_s

    def _degraded_budget_s(self) -> float:
        return self.disk.round_s * (1.0 - self._degradation)

    def _admission_test(
        self, rate_bps: float
    ) -> tuple[AdmissionDecision, ServerLoad]:
        """The decision on one more stream, and the load that becomes
        the server's if it is admitted."""
        load = self._admission.extended(self._held_load(), (rate_bps,))
        decision = self._admission.decide(load)
        if (
            decision
            and self.degradation_limits_admission
            and self._degradation > 0.0
        ):
            busy_s, budget = load.busy_s(self.disk), self._degraded_budget_s()
            if busy_s > budget + 1e-12:
                decision = AdmissionDecision(
                    False, "disk",
                    f"round busy {busy_s * 1e3:.1f} ms exceeds "
                    f"degraded budget {budget * 1e3:.1f} ms "
                    f"(degradation {self._degradation:g})",
                )
        return decision, load

    def can_admit(self, rate_bps: float) -> AdmissionDecision:
        check_positive(rate_bps, "rate_bps")
        return self._admission_test(rate_bps)[0]

    # -- admission / release -----------------------------------------------------------

    def admit(
        self, variant_id: str, rate_bps: float, *, holder: str = "anonymous"
    ) -> StreamReservation:
        """Admit one stream or raise :class:`AdmissionError` (or
        :class:`ServerCrashedError` while the machine is down)."""
        check_positive(rate_bps, "rate_bps")
        if self._crashed:
            raise ServerCrashedError(f"{self.server_id} is down")
        if self.fault_hook is not None:
            self.fault_hook.before_admit(self, variant_id, rate_bps)
        decision, load = self._admission_test(rate_bps)
        if not decision:
            raise AdmissionError(
                f"{self.server_id} rejected {variant_id!r}: "
                f"{decision.limiting_resource} ({decision.detail})"
            )
        sequence = next(self._sequence)
        stream_id = f"{self.server_id}/stream-{sequence}"
        reservation = StreamReservation(
            stream_id=stream_id,
            server_id=self.server_id,
            variant_id=variant_id,
            rate_bps=rate_bps,
            holder=holder,
            sequence=sequence,
        )
        self._streams[stream_id] = reservation
        self._load = load  # appended last, exactly as a re-sum would
        self.scheduler.add_stream(stream_id, rate_bps)
        if self.telemetry is not None:
            self.telemetry.count(
                "server.streams.reserved", server=self.server_id
            )
        return reservation

    def release(self, reservation: "StreamReservation | str") -> None:
        stream_id = (
            reservation.stream_id
            if isinstance(reservation, StreamReservation)
            else reservation
        )
        if self.fault_hook is not None and self.fault_hook.intercept_stream_release(
            self, stream_id
        ):
            return  # lost release: the ledger leaks until the lease reaper runs
        if self._streams.pop(stream_id, None) is None:
            raise ReservationError(
                f"{self.server_id}: no stream {stream_id!r}"
            )
        self._load = None  # dropped, never subtracted from
        self.scheduler.remove_stream(stream_id)
        if self.telemetry is not None:
            self.telemetry.count(
                "server.streams.released", server=self.server_id
            )

    def release_all(self) -> None:
        for stream_id in list(self._streams):
            self.release(stream_id)

    def reservations(self) -> tuple[StreamReservation, ...]:
        return tuple(self._streams.values())

    def has_stream(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def streams_for_holder(self, holder: str) -> tuple[StreamReservation, ...]:
        """Every stream admitted on behalf of ``holder`` (the
        crash-recovery compensation scan)."""
        return tuple(
            s for s in self._streams.values() if s.holder == holder
        )

    # -- crash / restart ---------------------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """The machine goes down: admissions raise, every held stream is
        violated until :meth:`restart`."""
        self._crashed = True

    def restart(self, *, preserve_streams: bool = False) -> None:
        """Bring the machine back.  A real crash loses the in-memory
        reservation ledger, so by default held streams are wiped — their
        holders' later releases are tolerated by the rollback paths."""
        if not preserve_streams:
            for stream_id in list(self._streams):
                self._streams.pop(stream_id)
                self.scheduler.remove_stream(stream_id)
            self._load = None
        self._crashed = False

    # -- degradation / adaptation hooks ----------------------------------------------

    def set_degradation(self, fraction: float) -> None:
        """Shrink the server's deliverable share by ``fraction`` —
        models a load spike, a failing disk, or background maintenance."""
        self._degradation = check_fraction(fraction, "degradation fraction")

    @property
    def degradation(self) -> float:
        return self._degradation

    def violated_holders(self) -> frozenset[str]:
        """Holders currently shed because degradation shrank capacity
        below the admitted aggregate; latest admissions shed first.  A
        crashed machine sheds everyone."""
        if self._crashed:
            return frozenset(s.holder for s in self._streams.values())
        if self._degradation == 0.0:
            return frozenset()
        budget = self._degraded_budget_s()
        if self._held_load().busy_s(self.disk) <= budget + 1e-12:
            return frozenset()
        victims: list[str] = []
        running = 0.0
        for reservation in self._streams.values():  # admission order
            running += (
                reservation.rate_bps * self.disk.round_s / self.disk.transfer_rate_bps
                + self.disk.overhead_s
            )
            if running > budget + 1e-12:
                victims.append(reservation.holder)
        return frozenset(victims)

    def execute_round(self, rng=None):
        """Advance one service round (delegates to the scheduler)."""
        return self.scheduler.execute_round(rng)

    def __repr__(self) -> str:
        return (
            f"MediaServer({self.server_id}: {self.stream_count} streams, "
            f"{self.aggregate_rate_bps / 1e6:.1f} Mbps)"
        )
