"""Write-ahead reservation journal + crash recovery.

The paper's steps 5–6 assume the QoS manager survives its own
negotiation; this package removes that assumption.  Every reservation
transition is journaled *before* it is applied
(:class:`ReservationJournal`, :mod:`~repro.journal.records`), so after
a manager crash :class:`RecoveryManager` can replay the journal against
the live server/transport ledgers: compensate orphaned reservations,
re-arm surviving ``choicePeriod`` deadlines, hand confirmed sessions to
the session supervisor, and prove zero leaked capacity
(:class:`RecoveryReport`).
"""

from .records import (
    ACTIVE_TYPES,
    TERMINAL_TYPES,
    JournalRecord,
    JournalRecordType,
)
from .recovery import (
    HolderOutcome,
    RecoveryManager,
    RecoveryReport,
)
from .store import ReservationJournal, read_journal_bytes

__all__ = [
    "JournalRecordType",
    "JournalRecord",
    "TERMINAL_TYPES",
    "ACTIVE_TYPES",
    "ReservationJournal",
    "read_journal_bytes",
    "RecoveryManager",
    "RecoveryReport",
    "HolderOutcome",
]
