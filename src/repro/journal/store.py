"""The write-ahead reservation journal.

Append-only JSONL with the append-before-apply discipline: a transition
is journaled *first*, then applied to the live ledgers, so after a
manager crash the journal is always at least as advanced as the
resource state and :class:`~repro.journal.recovery.RecoveryManager` can
redo or compensate every in-flight negotiation.

Two backends behind one class:

* **in-memory** (``path=None``) — the default for simulations: records
  are kept on a list, nothing touches the filesystem, and a "restart"
  hands the same journal object to the recovery manager;
* **file-backed** — one JSON line per record, flushed on every append,
  ``fsync``-optional.  :meth:`ReservationJournal.open` reads an
  existing file back tolerantly: a torn final record (the crash hit
  mid-write) is dropped and the file truncated to the intact prefix;
  corruption *before* the tail is real damage and raises
  :class:`~repro.util.errors.JournalError`.

The ``crash_hook`` attribute is the fault-injection seam: the chaos
injector installs itself there and may raise
:class:`~repro.util.errors.ManagerCrashError` after a record is made
durable — exactly the window a real crash occupies.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Union

from ..util.errors import JournalError
from .records import JournalRecord, JournalRecordType

__all__ = ["ReservationJournal", "read_journal_bytes"]


def read_journal_bytes(
    data: bytes, *, source: str = "<bytes>"
) -> "tuple[list[JournalRecord], int, int]":
    """Parse journal bytes tolerating a torn tail.

    Returns ``(records, clean_length, torn_dropped)`` where
    ``clean_length`` is the byte length of the intact prefix (so a
    file-backed journal can truncate away the torn bytes before
    appending again).  A malformed line that is *not* the last
    non-empty line — or a sequence number that does not increase —
    raises :class:`JournalError`: that is corruption, not a torn tail.
    """
    records: list[JournalRecord] = []
    clean_length = 0
    torn = 0
    offset = 0
    chunks = data.split(b"\n")
    # Everything after the final newline (possibly b"") is the tail
    # fragment; complete lines are all chunks but the last.
    for index, chunk in enumerate(chunks):
        is_last = index == len(chunks) - 1
        line_length = len(chunk) + (0 if is_last else 1)
        text = chunk.decode("utf-8", errors="replace").strip()
        if not text:
            offset += line_length
            clean_length = offset
            continue
        try:
            record = JournalRecord.from_line(text)
        except JournalError:
            remainder = b"\n".join(chunks[index + 1 :]).strip()
            if remainder:
                raise  # damage before the tail: not a torn write
            torn += 1
            break
        if records and record.sequence <= records[-1].sequence:
            # The line parsed and its checksum held, so this is not a
            # torn write — it is real corruption, wherever it sits.
            raise JournalError(
                f"{source}: sequence went from {records[-1].sequence} "
                f"to {record.sequence}"
            )
        records.append(record)
        offset += line_length
        clean_length = offset
    return records, clean_length, torn


class ReservationJournal:
    """Append-only write-ahead journal of reservation transitions."""

    def __init__(
        self,
        path: "Union[str, Path, None]" = None,
        *,
        fsync: bool = False,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self.torn_records_dropped = 0
        self.crash_hook: "Callable[[JournalRecord], None] | None" = None
        # Observability seam: assign a repro.telemetry.Telemetry hub and
        # every append is counted and traced.  Plain attribute (not a
        # constructor arg) so reopening a file journal after a crash can
        # re-attach the same hub.
        self.telemetry: Any = None
        self._records: "list[JournalRecord]" = []
        self._next_sequence = 1
        self._handle: "io.BufferedWriter | None" = None
        self._closed = False
        # Single-writer discipline: holders whose latest record is an
        # INTENT (a step-5 walk in flight).  A second INTENT for the
        # same holder before the first resolves would interleave two
        # walks' records and tear the per-holder semantics recovery
        # replays — the cooperative scheduler makes that an easy bug to
        # write, so the journal refuses it loudly.
        self._open_intents: "set[str]" = set()

    # -- opening / closing ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: "Union[str, Path]",
        *,
        fsync: bool = False,
    ) -> "ReservationJournal":
        """Open (or create) a file-backed journal, recovering from a
        torn final record by truncating to the intact prefix."""
        journal = cls(path, fsync=fsync)
        file_path = journal.path
        assert file_path is not None
        if file_path.exists():
            data = file_path.read_bytes()
            records, clean_length, torn = read_journal_bytes(
                data, source=str(file_path)
            )
            journal._records = records
            journal._next_sequence = (
                records[-1].sequence + 1 if records else 1
            )
            journal.torn_records_dropped = torn
            # Rebuild the in-flight-INTENT set tolerantly: a crash may
            # legitimately leave an INTENT open at the tail (recovery
            # closes it with a compensating RELEASED), so replay only
            # tracks — it never raises.
            for record in records:
                if record.record_type is JournalRecordType.INTENT:
                    journal._open_intents.add(record.holder)
                else:
                    journal._open_intents.discard(record.holder)
            if clean_length < len(data):
                with file_path.open("r+b") as handle:
                    handle.truncate(clean_length)
        return journal

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    def __enter__(self) -> "ReservationJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- appending -----------------------------------------------------------------

    def append(
        self,
        record_type: JournalRecordType,
        holder: str,
        payload: "Mapping[str, Any] | None" = None,
        *,
        timestamp: float,
    ) -> JournalRecord:
        """Journal one transition (append-before-apply: call this
        *before* touching the live ledgers).

        The record is made durable first; only then does the
        ``crash_hook`` get a chance to kill the manager, so the journal
        never lags the resource state.
        """
        if self._closed:
            raise JournalError("journal is closed")
        if (
            record_type is JournalRecordType.INTENT
            and holder in self._open_intents
        ):
            raise JournalError(
                f"interleaved INTENT for holder {holder!r}: the previous "
                "commitment walk has not resolved (RESERVED/RELEASED) "
                "— one holder must finish each step-5 walk before "
                "starting the next"
            )
        record = JournalRecord(
            sequence=self._next_sequence,
            record_type=record_type,
            holder=holder,
            timestamp=float(timestamp),
            payload=dict(payload or {}),
        )
        self._write(record)
        self._records.append(record)
        self._next_sequence += 1
        if record_type is JournalRecordType.INTENT:
            self._open_intents.add(holder)
        else:
            self._open_intents.discard(holder)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.count(
                "journal.records", type=record.record_type.value
            )
            telemetry.tracer.emit(
                "journal.append",
                start_s=record.timestamp,
                end_s=record.timestamp,
                parent=telemetry.tracer.current_context(),
                attributes={
                    "type": record.record_type.value,
                    "holder": record.holder,
                    "sequence": record.sequence,
                },
            )
        if self.crash_hook is not None:
            self.crash_hook(record)
        return record

    def _write(self, record: JournalRecord) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self._handle = self.path.open("ab")
        self._handle.write(record.to_line().encode("utf-8") + b"\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    # -- reading -------------------------------------------------------------------

    def has_open_intent(self, holder: str) -> bool:
        """Is ``holder``'s latest record an ``INTENT`` — a step-5 walk
        begun and not yet resolved by ``RESERVED``/``RELEASED``?"""
        return holder in self._open_intents

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> "Iterator[JournalRecord]":
        return iter(self._records)

    def records(self) -> "tuple[JournalRecord, ...]":
        return tuple(self._records)

    def records_for(self, holder: str) -> "tuple[JournalRecord, ...]":
        return tuple(r for r in self._records if r.holder == holder)

    def by_holder(self) -> "dict[str, list[JournalRecord]]":
        """Records grouped per holder, in first-seen order (the order
        the recovery manager classifies in — deterministic)."""
        grouped: dict[str, list[JournalRecord]] = {}
        for record in self._records:
            grouped.setdefault(record.holder, []).append(record)
        return grouped

    def last_for(self, holder: str) -> "JournalRecord | None":
        for record in reversed(self._records):
            if record.holder == holder:
                return record
        return None

    def describe(self) -> str:
        where = str(self.path) if self.path is not None else "(in-memory)"
        lines = [f"reservation journal {where}: {len(self._records)} records"]
        lines.extend(f"  {record.describe()}" for record in self._records)
        if self.torn_records_dropped:
            lines.append(
                f"  [{self.torn_records_dropped} torn record(s) dropped "
                "at the tail]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        where = str(self.path) if self.path is not None else "memory"
        return (
            f"ReservationJournal({where}, {len(self._records)} records, "
            f"next seq {self._next_sequence})"
        )
