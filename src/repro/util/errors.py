"""Exception hierarchy for the :mod:`repro` library.

Every error raised by library code derives from :class:`ReproError`, so
applications embedding the negotiation procedure can catch one base class
at their outermost boundary.  Sub-hierarchies mirror the package layout:
document/metadata errors, client-capability errors, resource errors
(network + server), and negotiation-protocol errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "UnitError",
    "DocumentError",
    "UnknownMediumError",
    "VariantError",
    "SynchronizationError",
    "MetadataError",
    "DuplicateKeyError",
    "NotFoundError",
    "PersistenceError",
    "ClientError",
    "DecoderError",
    "NetworkError",
    "NoRouteError",
    "ReservationError",
    "CapacityError",
    "ServerError",
    "AdmissionError",
    "ServerCrashedError",
    "FaultError",
    "TransientFaultError",
    "FaultTimeoutError",
    "LeaseError",
    "ManagerCrashError",
    "JournalError",
    "NegotiationError",
    "ProfileError",
    "OfferError",
    "ConfirmationTimeout",
    "AdaptationError",
    "SessionError",
    "SimulationError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class of all errors raised by the library."""


class ValidationError(ReproError, ValueError):
    """A value object was constructed with out-of-range or inconsistent data."""


class UnitError(ValidationError):
    """A quantity carried the wrong unit or an impossible magnitude."""


# --------------------------------------------------------------------------
# documents / metadata
# --------------------------------------------------------------------------

class DocumentError(ReproError):
    """Problems in the multimedia document model."""


class UnknownMediumError(DocumentError):
    """A medium name outside the taxonomy of Section 2 was used."""


class VariantError(DocumentError):
    """A variant was malformed or incompatible with its monomedia."""


class SynchronizationError(DocumentError):
    """Temporal/spatial synchronization constraints are inconsistent."""


class MetadataError(ReproError):
    """Problems in the metadata database substrate."""


class DuplicateKeyError(MetadataError):
    """An insert collided with an existing primary key."""


class NotFoundError(MetadataError, KeyError):
    """A lookup by key found nothing."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class PersistenceError(MetadataError):
    """Serialization or deserialization of the store failed."""


# --------------------------------------------------------------------------
# client
# --------------------------------------------------------------------------

class ClientError(ReproError):
    """Problems describing or querying a client machine."""


class DecoderError(ClientError):
    """A decoder description was malformed or a codec is unknown."""


# --------------------------------------------------------------------------
# network / server resources
# --------------------------------------------------------------------------

class NetworkError(ReproError):
    """Problems in the network substrate."""


class NoRouteError(NetworkError):
    """No path exists between the requested endpoints."""


class ReservationError(ReproError):
    """A resource reservation could not be created, found, or released."""


class CapacityError(ReservationError):
    """The requested reservation exceeds remaining capacity."""


class ServerError(ReproError):
    """Problems in the continuous-media file server substrate."""


class AdmissionError(ServerError):
    """The admission controller rejected a stream."""


class ServerCrashedError(ServerError):
    """The server machine is down; no request can be served until it
    restarts.  Retryable: the fleet-level retry policy may ride over a
    short outage, and the circuit breaker quarantines repeat offenders."""


# --------------------------------------------------------------------------
# fault injection / resilience
# --------------------------------------------------------------------------

class FaultError(ReproError):
    """Base class of errors raised by injected faults (chaos testing)."""


class TransientFaultError(FaultError):
    """An injected transient refusal: the operation would succeed if
    simply retried.  The canonical retryable error."""


class FaultTimeoutError(FaultError):
    """An injected slow call exceeded the per-attempt timeout budget.
    Retryable (the next attempt may be served promptly)."""


class LeaseError(ReproError):
    """A reservation lease was missing, duplicated, or already expired."""


class ManagerCrashError(FaultError):
    """An injected QoS-manager crash: the manager process dies mid-flight
    and every in-memory negotiation is lost.  NOT retryable from inside
    the manager — recovery happens by replaying the reservation journal
    after restart (see :mod:`repro.journal`)."""


# --------------------------------------------------------------------------
# reservation journal / crash recovery
# --------------------------------------------------------------------------

class JournalError(ReproError):
    """The write-ahead reservation journal is corrupt or was misused
    (non-monotonic sequence numbers, checksum mismatch away from the
    tail, appends after close)."""


# --------------------------------------------------------------------------
# negotiation core
# --------------------------------------------------------------------------

class NegotiationError(ReproError):
    """Protocol-level failures of the negotiation procedure itself.

    Note that ordinary negative outcomes (FAILEDTRYLATER etc.) are *not*
    exceptions — they are returned in the negotiation result, exactly as
    Section 4 of the paper returns a negotiation status to the user.
    """


class ProfileError(NegotiationError):
    """A user/MM/importance profile was malformed."""


class OfferError(NegotiationError):
    """A system/user offer was malformed or used inconsistently."""


class ConfirmationTimeout(NegotiationError):
    """The user failed to confirm an offer within ``choicePeriod``."""


class AdaptationError(NegotiationError):
    """The adaptation procedure could not find or switch to an alternate offer."""


# --------------------------------------------------------------------------
# session / simulation
# --------------------------------------------------------------------------

class SessionError(ReproError):
    """Problems in the playout session engine."""


class SimulationError(ReproError):
    """Problems in the workload/scenario simulation layer."""


class TelemetryError(ReproError):
    """The observability layer was misused (unregistered metric name,
    wrong instrument kind, malformed span record).  Telemetry *reading*
    is always safe; only mis-instrumentation raises."""
