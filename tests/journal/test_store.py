"""The write-ahead store: append discipline, file backend, torn tails."""

import pytest

from repro.journal import (
    JournalRecordType,
    ReservationJournal,
    read_journal_bytes,
)
from repro.util.errors import JournalError, ManagerCrashError


def fill(journal, holders=("s1", "s2")):
    t = 0.0
    for holder in holders:
        journal.append(JournalRecordType.INTENT, holder, timestamp=t)
        journal.append(
            JournalRecordType.RESERVED,
            holder,
            {"choice_period_s": 60.0},
            timestamp=t,
        )
        t += 5.0
    return journal


class TestInMemory:
    def test_sequences_strictly_increase(self):
        journal = fill(ReservationJournal())
        assert [r.sequence for r in journal] == [1, 2, 3, 4]

    def test_by_holder_and_last_for(self):
        journal = fill(ReservationJournal())
        assert [r.holder for r in journal.by_holder()["s2"]] == ["s2", "s2"]
        last = journal.last_for("s1")
        assert last is not None
        assert last.record_type is JournalRecordType.RESERVED
        assert journal.last_for("nobody") is None

    def test_by_holder_preserves_first_seen_order(self):
        journal = fill(ReservationJournal(), holders=("b", "a"))
        assert list(journal.by_holder()) == ["b", "a"]

    def test_closed_journal_rejects_appends(self):
        journal = ReservationJournal()
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)

    def test_crash_hook_fires_after_the_record_is_durable(self):
        journal = ReservationJournal()

        def hook(record):
            raise ManagerCrashError(f"boom at {record.sequence}")

        journal.crash_hook = hook
        with pytest.raises(ManagerCrashError):
            journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        # Append-before-apply: the record survived its own crash.
        assert len(journal) == 1
        assert journal.records()[0].record_type is JournalRecordType.INTENT


class TestFileBacked:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with ReservationJournal.open(path) as journal:
            fill(journal)
            written = journal.records()
        with ReservationJournal.open(path) as reopened:
            assert reopened.records() == written

    def test_reopened_journal_continues_the_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with ReservationJournal.open(path) as journal:
            fill(journal)
        with ReservationJournal.open(path) as reopened:
            record = reopened.append(
                JournalRecordType.RELEASED,
                "s1",
                {"reason": "teardown"},
                timestamp=9.0,
            )
            assert record.sequence == 5

    def test_fsync_mode_writes_identically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with ReservationJournal.open(path, fsync=True) as journal:
            fill(journal)
        with ReservationJournal.open(path) as reopened:
            assert len(reopened) == 4


class TestTornTail:
    def write_clean(self, path):
        with ReservationJournal.open(path) as journal:
            fill(journal)
            return journal.records()

    def test_torn_final_line_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        written = self.write_clean(path)
        clean = path.read_bytes()
        path.write_bytes(clean + b'{"seq":5,"type":"rele')  # crash mid-write
        with ReservationJournal.open(path) as journal:
            assert journal.records() == written
            assert journal.torn_records_dropped == 1
            assert "torn record" in journal.describe()
        assert path.read_bytes() == clean  # truncated back to the prefix

    def test_torn_tail_with_newline_is_still_the_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        written = self.write_clean(path)
        path.write_bytes(path.read_bytes() + b'{"half":tru\n')
        with ReservationJournal.open(path) as journal:
            assert journal.records() == written

    def test_append_after_torn_recovery_is_clean(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_clean(path)
        path.write_bytes(path.read_bytes() + b'{"torn')
        with ReservationJournal.open(path) as journal:
            journal.append(
                JournalRecordType.RELEASED,
                "s2",
                {"reason": "teardown"},
                timestamp=11.0,
            )
        with ReservationJournal.open(path) as reopened:
            assert reopened.torn_records_dropped == 0
            assert [r.sequence for r in reopened] == [1, 2, 3, 4, 5]

    def test_mid_file_corruption_is_not_a_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_clean(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"garbage": true}\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError):
            ReservationJournal.open(path)

    def test_sequence_regression_is_corruption(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_clean(path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines + [lines[0]]))  # seq jumps back to 1
        with pytest.raises(JournalError, match="sequence"):
            ReservationJournal.open(path)


class TestReadJournalBytes:
    def test_empty_input(self):
        records, clean, torn = read_journal_bytes(b"")
        assert (records, clean, torn) == ([], 0, 0)

    def test_blank_lines_are_skipped(self):
        journal = fill(ReservationJournal())
        data = b"\n".join(
            record.to_line().encode() for record in journal
        ) + b"\n\n"
        records, clean, torn = read_journal_bytes(data)
        assert len(records) == 4
        assert clean == len(data)
        assert torn == 0


class TestSingleWriterDiscipline:
    """An INTENT opens a step-5 window for its holder; a second INTENT
    for the same holder before RESERVED/RELEASED is an interleaving bug
    (two walks sharing one holder id), and the append refuses it."""

    def test_interleaved_intent_for_same_holder_is_rejected(self):
        journal = ReservationJournal()
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        with pytest.raises(JournalError, match="interleaved INTENT"):
            journal.append(JournalRecordType.INTENT, "s1", timestamp=0.1)

    def test_resolved_window_allows_the_next_attempt(self):
        journal = ReservationJournal()
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.append(
            JournalRecordType.RELEASED, "s1",
            {"reason": "commit-failed"}, timestamp=0.1,
        )
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.2)
        journal.append(
            JournalRecordType.RESERVED, "s1",
            {"choice_period_s": 60.0}, timestamp=0.3,
        )
        journal.append(JournalRecordType.INTENT, "s2", timestamp=0.4)
        assert len(journal) == 5

    def test_concurrent_holders_may_interleave_freely(self):
        journal = ReservationJournal()
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.append(JournalRecordType.INTENT, "s2", timestamp=0.0)
        journal.append(
            JournalRecordType.RESERVED, "s2",
            {"choice_period_s": 60.0}, timestamp=0.1,
        )
        journal.append(
            JournalRecordType.RESERVED, "s1",
            {"choice_period_s": 60.0}, timestamp=0.2,
        )
        assert len(journal) == 4

    def test_reopened_journal_with_open_intent_tail_still_loads(
        self, tmp_path
    ):
        """A crash can legitimately leave an INTENT open at the tail;
        replay must tolerate it (recovery compensates), and the rebuilt
        set still enforces the discipline going forward."""
        path = tmp_path / "wal.jsonl"
        journal = ReservationJournal(path)
        journal.append(JournalRecordType.INTENT, "s1", timestamp=0.0)
        journal.close()
        reopened = ReservationJournal.open(path)
        with pytest.raises(JournalError, match="interleaved INTENT"):
            reopened.append(JournalRecordType.INTENT, "s1", timestamp=1.0)
        reopened.append(
            JournalRecordType.RELEASED, "s1",
            {"reason": "orphan"}, timestamp=1.0,
        )
        reopened.append(JournalRecordType.INTENT, "s1", timestamp=2.0)
