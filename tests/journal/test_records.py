"""Journal record serialization: round-trip, checksums, malformations."""

import json

import pytest

from repro.journal import (
    ACTIVE_TYPES,
    JournalRecord,
    JournalRecordType,
    TERMINAL_TYPES,
)
from repro.util.errors import JournalError


def make_record(**overrides):
    defaults = dict(
        sequence=1,
        record_type=JournalRecordType.RESERVED,
        holder="session-1",
        timestamp=12.5,
        payload={"offer_id": "offer-1", "choice_period_s": 60.0},
    )
    defaults.update(overrides)
    return JournalRecord(**defaults)


class TestRoundTrip:
    @pytest.mark.parametrize("record_type", list(JournalRecordType))
    def test_every_type_round_trips(self, record_type):
        record = make_record(record_type=record_type)
        assert JournalRecord.from_line(record.to_line()) == record

    def test_payload_survives_nesting(self):
        record = make_record(
            payload={
                "streams": [{"server_id": "server-a", "stream_id": "s/1"}],
                "flows": [],
                "reason": "teardown",
            }
        )
        parsed = JournalRecord.from_line(record.to_line())
        assert parsed.payload == record.payload

    def test_line_is_one_json_object_with_crc(self):
        blob = json.loads(make_record().to_line())
        assert blob["crc"] == make_record().checksum()
        assert "\n" not in make_record().to_line()


class TestValidation:
    def test_sequence_must_be_positive(self):
        with pytest.raises(JournalError):
            make_record(sequence=0)

    def test_holder_must_be_non_empty(self):
        with pytest.raises(JournalError):
            make_record(holder="")

    def test_unknown_type_rejected(self):
        line = make_record().to_line().replace('"reserved"', '"exploded"')
        with pytest.raises(JournalError):
            JournalRecord.from_line(line)

    def test_corrupted_payload_fails_checksum(self):
        line = make_record().to_line().replace("offer-1", "offer-2")
        with pytest.raises(JournalError, match="checksum"):
            JournalRecord.from_line(line)

    def test_truncated_line_rejected(self):
        line = make_record().to_line()
        with pytest.raises(JournalError):
            JournalRecord.from_line(line[: len(line) // 2])

    def test_non_object_line_rejected(self):
        with pytest.raises(JournalError):
            JournalRecord.from_line("[1, 2, 3]")

    def test_missing_crc_rejected(self):
        blob = json.loads(make_record().to_line())
        del blob["crc"]
        with pytest.raises(JournalError):
            JournalRecord.from_line(json.dumps(blob))


class TestTaxonomy:
    def test_terminal_types_end_ownership(self):
        assert TERMINAL_TYPES == {
            JournalRecordType.RELEASED,
            JournalRecordType.EXPIRED,
        }
        for record_type in JournalRecordType:
            assert make_record(record_type=record_type).is_terminal == (
                record_type in TERMINAL_TYPES
            )

    def test_active_types_mean_playing(self):
        assert ACTIVE_TYPES == {
            JournalRecordType.CONFIRMED,
            JournalRecordType.ADAPT_SWITCH,
        }

    def test_describe_names_the_reason(self):
        record = make_record(
            record_type=JournalRecordType.RELEASED,
            payload={"reason": "lease-reaped"},
        )
        assert "lease-reaped" in record.describe()
        assert "session-1" in record.describe()


# One record per type, in the payload shape its writer produces.  The
# bytes are what a file journal holds and what a restart must read
# back, so a faster serialiser has to reproduce them exactly.
PINNED_LINES = [
    (
        JournalRecordType.INTENT,
        {"client": "client-net"},
        '{"crc":331921987,"holder":"session-3",'
        '"payload":{"client":"client-net"},'
        '"seq":1,"t":12.5,"type":"intent"}',
    ),
    (
        JournalRecordType.RESERVED,
        {
            "offer_id": "offer-22",
            "reserved_at": 12.5,
            "choice_period_s": 60.0,
            "streams": [{
                "server_id": "server-c",
                "stream_id": "server-c/stream-7",
                "rate_bps": 1536000.0,
            }],
            "flows": [{"flow_id": "flow-9", "reserved_bps": 1536000.0}],
        },
        '{"crc":3194065048,"holder":"session-3",'
        '"payload":{"choice_period_s":60.0,'
        '"flows":[{"flow_id":"flow-9","reserved_bps":1536000.0}],'
        '"offer_id":"offer-22","reserved_at":12.5,'
        '"streams":[{"rate_bps":1536000.0,"server_id":"server-c",'
        '"stream_id":"server-c/stream-7"}]},'
        '"seq":2,"t":12.5,"type":"reserved"}',
    ),
    (
        JournalRecordType.CONFIRMED,
        {"offer_id": "offer-22"},
        '{"crc":2676569896,"holder":"session-3",'
        '"payload":{"offer_id":"offer-22"},'
        '"seq":3,"t":12.5,"type":"confirmed"}',
    ),
    (
        JournalRecordType.RELEASED,
        {"reason": "commit-failed"},
        '{"crc":39167863,"holder":"session-3",'
        '"payload":{"reason":"commit-failed"},'
        '"seq":4,"t":12.5,"type":"released"}',
    ),
    (
        JournalRecordType.EXPIRED,
        {"offer_id": "offer-22", "recovered": True},
        '{"crc":4128419866,"holder":"session-3",'
        '"payload":{"offer_id":"offer-22","recovered":true},'
        '"seq":5,"t":12.5,"type":"expired"}',
    ),
    (
        JournalRecordType.ADAPT_SWITCH,
        {
            "from_holder": "session-2",
            "old_offer_id": "offer-1",
            "new_offer_id": "offer-é",
            "position_s": 4.0,
        },
        # Non-ASCII is escaped, so the line stays pure ASCII.
        '{"crc":2156256435,"holder":"session-3",'
        '"payload":{"from_holder":"session-2",'
        '"new_offer_id":"offer-\\u00e9","old_offer_id":"offer-1",'
        '"position_s":4.0},'
        '"seq":6,"t":12.5,"type":"adapt-switch"}',
    ),
]


class TestPinnedBytes:
    def test_the_type_list_is_complete(self):
        assert [entry[0] for entry in PINNED_LINES] == list(JournalRecordType)

    @pytest.mark.parametrize(
        "sequence,entry", list(enumerate(PINNED_LINES, start=1))
    )
    def test_line_bytes_and_crc(self, sequence, entry):
        record_type, payload, line = entry
        record = JournalRecord(
            sequence=sequence, record_type=record_type,
            holder="session-3", timestamp=12.5, payload=payload,
        )
        assert record.to_line() == line
        assert line.isascii()
        assert record.checksum() == json.loads(line)["crc"]
        assert JournalRecord.from_line(line) == record

    def test_empty_payload(self):
        record = make_record(
            record_type=JournalRecordType.INTENT, payload={}
        )
        assert record.to_line() == (
            '{"crc":2721043268,"holder":"session-1","payload":{},'
            '"seq":1,"t":12.5,"type":"intent"}'
        )
        assert record.checksum() == 2721043268
