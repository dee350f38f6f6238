"""Write-ahead journal records for the reservation lifecycle.

Every resource transition of paper steps 5–6 is journaled *before* it
is applied (write-ahead discipline): the record names the reservation
holder, the transition, and enough payload to redo or undo the
transition after a manager crash.  Records serialize to one JSON line
each with a CRC32 checksum, so the reader can detect a torn tail (a
record cut short by the crash itself) and recover from the intact
prefix.

The six record types map onto the paper's negotiation procedure:

=============  =============================================================
INTENT         the step-5 walk begins for this holder: from here on its
               attempts may hold server + network resources.  One per
               walk, however many offers the walk tries
RESERVED       step 5 succeeded and the step-6 ``choicePeriod`` clock is
               running; payload carries the offer, every stream/flow id
               and the deadline
CONFIRMED      step 6: the user confirmed within ``choicePeriod``
RELEASED       the holder owns nothing any more; ``reason`` says why:
               ``commit-failed`` (the walk ran out of offers),
               ``abandoned`` (its deadline budget ran out), ``rejected``,
               ``teardown``, ``lease-reaped``, ``recovery-orphan``,
               ``supervisor-timeout``
EXPIRED        the ``choicePeriod`` ran out; resources were released
ADAPT_SWITCH   the §4 adaptation procedure moved the session to an
               alternate offer (payload links old and new holders)
=============  =============================================================

An attempt that fails inside the walk leaves no record: it rolled back
everything it took, and recovery classifies a holder by its *last*
record, so a walk that died with only its ``INTENT`` written is found
by scanning the ledgers for the holder id, however many attempts came
before.
"""

from __future__ import annotations

import enum
import json
import zlib
from dataclasses import dataclass, field
from typing import Any

from ..util.errors import JournalError

__all__ = [
    "JournalRecordType",
    "JournalRecord",
    "TERMINAL_TYPES",
    "ACTIVE_TYPES",
]


class JournalRecordType(enum.Enum):
    """The reservation-lifecycle transitions the journal records."""

    INTENT = "intent"
    RESERVED = "reserved"
    CONFIRMED = "confirmed"
    RELEASED = "released"
    EXPIRED = "expired"
    ADAPT_SWITCH = "adapt-switch"


TERMINAL_TYPES = frozenset(
    {JournalRecordType.RELEASED, JournalRecordType.EXPIRED}
)
"""Record types after which the holder owns no resources."""

ACTIVE_TYPES = frozenset(
    {JournalRecordType.CONFIRMED, JournalRecordType.ADAPT_SWITCH}
)
"""Record types that mean the holder's session is confirmed and playing."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journaled transition."""

    sequence: int
    record_type: JournalRecordType
    holder: str
    timestamp: float
    payload: "dict[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sequence < 1:
            raise JournalError(
                f"record sequence must be >= 1, got {self.sequence}"
            )
        if not self.holder:
            raise JournalError("record holder must be non-empty")

    @property
    def is_terminal(self) -> bool:
        return self.record_type in TERMINAL_TYPES

    def _body(self) -> str:
        """The checksummed byte-stable form (everything but the crc)."""
        return json.dumps(
            {
                "seq": self.sequence,
                "type": self.record_type.value,
                "holder": self.holder,
                "t": self.timestamp,
                "payload": self.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def checksum(self) -> int:
        return zlib.crc32(self._body().encode("utf-8"))

    def to_line(self) -> str:
        """One JSON line, checksum included (no trailing newline).

        The record is serialised once: ``"crc"`` sorts before every
        other key, so the line is the checksummed body with the crc
        spliced in behind its opening brace.
        """
        body = self._body()
        return '{"crc":%d,%s' % (zlib.crc32(body.encode("utf-8")), body[1:])

    @classmethod
    def from_line(cls, line: str) -> "JournalRecord":
        """Parse + verify one journal line; :class:`JournalError` on any
        malformation (the store's reader decides whether a bad *final*
        line is a tolerable torn tail)."""
        try:
            blob = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"unparseable journal line: {exc}") from None
        if not isinstance(blob, dict):
            raise JournalError("journal line is not a JSON object")
        try:
            record = cls(
                sequence=int(blob["seq"]),
                record_type=JournalRecordType(blob["type"]),
                holder=str(blob["holder"]),
                timestamp=float(blob["t"]),
                payload=dict(blob["payload"]),
            )
            crc = int(blob["crc"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal record: {exc}") from None
        if record.checksum() != crc:
            raise JournalError(
                f"checksum mismatch on record {record.sequence} "
                f"(stored {crc:#010x}, computed {record.checksum():#010x})"
            )
        return record

    def describe(self) -> str:
        extra = ""
        reason = self.payload.get("reason")
        if reason:
            extra = f" ({reason})"
        return (
            f"#{self.sequence} t={self.timestamp:g}s "
            f"{self.record_type.value:<12} {self.holder}{extra}"
        )
