"""Shared utilities: errors, units, RNG streams, tables, validation."""

from .errors import (
    AdaptationError,
    AdmissionError,
    CapacityError,
    ClientError,
    ConfirmationTimeout,
    DecoderError,
    DocumentError,
    DuplicateKeyError,
    MetadataError,
    NegotiationError,
    NetworkError,
    NoRouteError,
    NotFoundError,
    OfferError,
    PersistenceError,
    ProfileError,
    ReadOnlyError,
    ReproError,
    ReservationError,
    ServerError,
    SessionError,
    SimulationError,
    SynchronizationError,
    UnitError,
    UnknownMediumError,
    ValidationError,
    VariantError,
)
from .rng import RngLike, make_rng
from .tables import render_box, render_table
from .units import (
    Money,
    bps,
    bits,
    dollars,
    format_bitrate,
    format_size,
    kbps,
    ms,
    seconds,
)
from .validation import (
    check_fraction,
    check_name,
    check_non_empty,
    check_non_negative,
    check_positive,
    check_range,
)

__all__ = [name for name in dir() if not name.startswith("_")]
