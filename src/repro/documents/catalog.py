"""Document catalog — the library of playable documents.

The news-on-demand prototype presents the user a list of articles; the
catalog is that list.  It enforces id uniqueness, offers lookup and
filtered iteration, and is the unit the metadata database ingests.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..util.errors import DuplicateKeyError, NotFoundError
from .document import Document

__all__ = ["DocumentCatalog"]


class DocumentCatalog:
    """An ordered, id-unique collection of documents."""

    def __init__(self) -> None:
        self._documents: dict[str, Document] = {}

    def add(self, document: Document) -> None:
        if document.document_id in self._documents:
            raise DuplicateKeyError(
                f"document {document.document_id!r} already in catalog"
            )
        self._documents[document.document_id] = document

    def replace(self, document: Document) -> None:
        """Insert or overwrite (used when re-deriving variant grids)."""
        self._documents[document.document_id] = document

    def remove(self, document_id: str) -> Document:
        try:
            return self._documents.pop(document_id)
        except KeyError:
            raise NotFoundError(f"no document {document_id!r}") from None

    def get(self, document_id: str) -> Document:
        try:
            return self._documents[document_id]
        except KeyError:
            raise NotFoundError(f"no document {document_id!r}") from None

    def __contains__(self, document_id: str) -> bool:
        return document_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    @property
    def document_ids(self) -> tuple[str, ...]:
        return tuple(self._documents)

    def select(
        self, predicate: Callable[[Document], bool]
    ) -> tuple[Document, ...]:
        return tuple(doc for doc in self if predicate(doc))
