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
from .rng import RngLike, derive_rng, make_rng, spawn_rngs
from .tables import render_box, render_kv, render_table
from .units import (
    Money,
    bps,
    bits,
    bytes_,
    dollars,
    format_bitrate,
    format_duration,
    format_size,
    gbps,
    kbps,
    kilobits,
    mbps,
    megabits,
    minutes,
    ms,
    seconds,
)
from .validation import (
    check_choice,
    check_fraction,
    check_name,
    check_non_empty,
    check_non_negative,
    check_positive,
    check_range,
    require,
)

__all__ = [name for name in dir() if not name.startswith("_")]
