"""The media server: admission + reservation ledger.

One :class:`MediaServer` is one server machine of §4's "set of server
machines".  The QoS manager's resource-commitment step calls
:meth:`admit` / :meth:`release`; the adaptation experiments inject
load spikes with :meth:`set_degradation` (a degraded server sheds its
most recent streams exactly like an oversubscribed link does).

Beside the ledger the server keeps its :class:`ServerLoad` — the four
totals the admission rules read — so a question costs O(1) however
many streams are held.  The load is exact, not approximately equal: an
admission appends its terms (the same ``+`` a fresh pass would do
last) and pushes the load it replaced onto an undo stack.  Releasing
the ledger's newest stream while the load is known pops that stack —
the popped load is what a re-sum of the shorter ledger gives, because
it was that ledger's load — so a refused step-5 attempt, which gives
back what it took in the order it took it, costs no rebuild on a server
where it held one stream.  Releasing the last stream sets the load to
:data:`EMPTY_LOAD`, which is what a re-sum of the empty ledger gives.
Any other removal drops the load and the stack, to be rebuilt in ledger
order by the next reader (:meth:`MediaServer._summed_ledger`).  Nothing
is ever subtracted, and no call is skipped.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import NamedTuple

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

__all__ = ["StreamReservation", "MediaServer"]

_RATE_OF = attrgetter("rate_bps")


class StreamReservation(NamedTuple):
    """One admitted stream's hold on the server: an immutable record
    built with one tuple allocation, compared and hashed field by
    field."""

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
    ) -> None:
        self.server_id = check_name(server_id, "server_id")
        self.access_point = access_point or f"{server_id}-net"
        if disk is None:
            disk = admission.disk if admission is not None else DiskModel()
        self.disk = disk
        # The ledger's totals as the admission rules read them; None
        # when a stream has left since they were last summed.
        self._load: ServerLoad | None = None
        # While the load is known: for each stream admitted since it was
        # last summed, oldest first, the load before that admission.
        self._undo: list[ServerLoad] = []
        self.admission = admission or AdmissionController(disk=disk)
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
        self._drop_load()  # to be re-totalled by this controller

    def _summed_ledger(self) -> ServerLoad:
        """The load rebuilt from the ledger in one pass, in ledger
        order — what :attr:`_load` equals whenever it is known."""
        return self._admission.extended(
            EMPTY_LOAD, map(_RATE_OF, self._streams.values())
        )

    def _drop_load(self) -> None:
        """Forget the load and its undo stack; the next reader re-sums."""
        self._load = None
        self._undo.clear()

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
        self, held: ServerLoad, rate_bps: float
    ) -> tuple[AdmissionDecision, ServerLoad]:
        """The decision on one more stream beside ``held``, and the load
        that becomes the server's if it is admitted."""
        load = self._admission.extended(held, (rate_bps,))
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
        return self._admission_test(self._held_load(), rate_bps)[0]

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
        held = self._held_load()
        decision, load = self._admission_test(held, rate_bps)
        if not decision:
            raise AdmissionError(
                f"{self.server_id} rejected {variant_id!r}: "
                f"{decision.limiting_resource} ({decision.detail})"
            )
        sequence = next(self._sequence)
        stream_id = f"{self.server_id}/stream-{sequence}"
        reservation = StreamReservation(
            stream_id, self.server_id, variant_id, rate_bps, holder, sequence
        )
        self._streams[stream_id] = reservation
        self._undo.append(held)
        self._load = load  # appended last, exactly as a re-sum would
        if self.telemetry is not None:
            self.telemetry.metrics.count(
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
        streams = self._streams
        if stream_id not in streams:
            raise ReservationError(
                f"{self.server_id}: no stream {stream_id!r}"
            )
        undo = self._undo
        if len(streams) == 1:
            self._load = EMPTY_LOAD  # what a re-sum of no streams gives
            undo.clear()
        elif undo and stream_id == next(reversed(streams)):
            self._load = undo.pop()  # the shorter ledger's load
        else:
            self._load = None  # dropped, never subtracted from
            undo.clear()
        del streams[stream_id]
        if self.telemetry is not None:
            self.telemetry.metrics.count(
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

    def restart(self) -> None:
        """Bring the machine back.  A real crash loses the in-memory
        reservation ledger, so held streams are wiped — their holders'
        later releases are tolerated by the rollback paths."""
        self._streams.clear()
        self._drop_load()
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

    def __repr__(self) -> str:
        return (
            f"MediaServer({self.server_id}: {self.stream_count} streams, "
            f"{self.aggregate_rate_bps / 1e6:.1f} Mbps)"
        )
