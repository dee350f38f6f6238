"""Round-trip properties of the metadata record layer: a document
inserted into the database comes back equal from its records."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.documents.document import Document
from repro.documents.monomedia import Monomedia
from repro.metadata.database import MetadataDatabase
from repro.metadata.schema import qos_from_record, qos_to_record

from .strategies import any_qos, video_variants


@st.composite
def documents(draw):
    doc_index = draw(st.integers(min_value=0, max_value=10**6))
    monomedia_id = f"doc{doc_index}.video"
    count = draw(st.integers(min_value=1, max_value=5))
    variants = tuple(
        draw(video_variants(monomedia_id=monomedia_id, index=i))
        for i in range(count)
    )
    duration = max(v.duration_s for v in variants)
    component = Monomedia(
        monomedia_id=monomedia_id,
        medium="video",
        title="clip",
        duration_s=duration,
        variants=variants,
    )
    return Document(
        document_id=f"doc{doc_index}",
        title=draw(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF),
                min_size=1,
                max_size=20,
            ).filter(str.strip)
        ),
        components=(component,),
        copyright_cost=draw(st.integers(min_value=0, max_value=10_000)) / 100,
    )


class TestQoSRoundtrip:
    @given(any_qos)
    def test_qos_record_roundtrip(self, qos):
        assert qos_from_record(qos_to_record(qos)) == qos


class TestDatabaseRoundtrip:
    @given(documents())
    @settings(max_examples=30, deadline=None)
    def test_document_roundtrip(self, document):
        db = MetadataDatabase()
        db.insert_document(document)
        assert db.get_document(document.document_id) == document

    @given(st.lists(documents(), min_size=1, max_size=3, unique_by=lambda d: d.document_id))
    @settings(max_examples=20, deadline=None)
    def test_multi_document_roundtrip(self, docs):
        db = MetadataDatabase()
        seen_monomedia = set()
        inserted = []
        for document in docs:
            ids = set(document.monomedia_ids)
            if ids & seen_monomedia:
                continue
            seen_monomedia |= ids
            db.insert_document(document)
            inserted.append(document)
        assert db.document_count == len(inserted)
        for document in inserted:
            assert db.get_document(document.document_id) == document
