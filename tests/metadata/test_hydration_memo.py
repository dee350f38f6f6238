"""``get_document`` hydrates once per ``version_of`` value.

The memo's contract: the same frozen ``Document`` object serves every
request while the document's version stands; any mutation makes the
next ``get_document`` equal to a fresh hydration of the records and
never hands back the stale object.  "Fresh" here is a shallow copy of
the database with an empty memo, which hydrates from the same records.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.documents.builder import make_news_article
from repro.documents.media import Codecs, ColorMode
from repro.documents.monomedia import BlockStats, Variant
from repro.documents.quality import VideoQoS
from repro.metadata.database import MetadataDatabase

DOCUMENT_IDS = ("doc.memo-1", "doc.memo-2")


def fresh(db, document_id):
    """The document as a memo-less database hydrates it."""
    clone = copy.copy(db)
    clone._hydrated = {}
    return clone.get_document(document_id)


def extra_variant(db, document_id, serial):
    component = db.get_document(document_id).components[0]
    return Variant(
        variant_id=f"{document_id}.extra-{serial}",
        monomedia_id=component.monomedia_id,
        codec=Codecs.MPEG1,
        qos=VideoQoS(color=ColorMode.GREY, frame_rate=5, resolution=180),
        size_bits=1e7,
        block_stats=BlockStats(1e4, 1e4, 5.0),
        server_id="server-c",
        duration_s=component.duration_s,
    )


@pytest.fixture
def db():
    database = MetadataDatabase()
    for document_id in DOCUMENT_IDS:
        database.insert_document(make_news_article(document_id))
    return database


class TestMemo:
    def test_unchanged_document_is_the_same_object(self, db):
        first = db.get_document(DOCUMENT_IDS[0])
        assert db.get_document(DOCUMENT_IDS[0]) is first
        assert first == fresh(db, DOCUMENT_IDS[0])

    def test_one_entry_per_stored_document(self, db):
        for _ in range(3):
            for document_id in DOCUMENT_IDS:
                db.get_document(document_id)
        assert set(db._hydrated) == set(DOCUMENT_IDS)

    def test_add_variant_invalidates(self, db):
        stale = db.get_document(DOCUMENT_IDS[0])
        other = db.get_document(DOCUMENT_IDS[1])
        db.add_variant(extra_variant(db, DOCUMENT_IDS[0], 1))
        current = db.get_document(DOCUMENT_IDS[0])
        assert current is not stale and current != stale
        assert current == fresh(db, DOCUMENT_IDS[0])
        assert len(current.components[0].variants) == (
            len(stale.components[0].variants) + 1
        )
        # The sibling's version did not move: still the shared object.
        assert db.get_document(DOCUMENT_IDS[1]) is other


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["add", "read"]), st.sampled_from(DOCUMENT_IDS)),
    min_size=1,
    max_size=12,
)


class TestMemoUnderMutation:
    @given(MUTATIONS)
    @settings(max_examples=60, deadline=None)
    def test_memoised_equals_fresh_after_every_step(self, steps):
        db = MetadataDatabase()
        for document_id in DOCUMENT_IDS:
            db.insert_document(make_news_article(document_id))
        for serial, (action, document_id) in enumerate(steps):
            if action == "add":
                db.add_variant(extra_variant(db, document_id, serial))
            for other in DOCUMENT_IDS:
                assert db.get_document(other) == fresh(db, other)
            assert set(db._hydrated) <= set(DOCUMENT_IDS)
