"""A dict that cannot be changed after it is built.

Value objects whose tables feed a key computed once at construction
(importance tables, server preference weights) hold their maps as
:class:`ReadOnlyDict`, so the key can never go stale.  It is still a
``dict``: ``repr``, equality, iteration, ``dict(...)`` copies and JSON
rendering are a plain dict's, so reprs and fingerprints built from
them keep their bytes (a ``MappingProxyType`` would print
``mappingproxy({...})``).
"""

from __future__ import annotations

from typing import Any, NoReturn

from .errors import ReadOnlyError

__all__ = ["ReadOnlyDict"]


class ReadOnlyDict(dict):
    """A ``dict`` whose every in-place change raises
    :class:`~repro.util.errors.ReadOnlyError`, a ``TypeError``."""

    __slots__ = ()

    def _refuse(self) -> NoReturn:
        raise ReadOnlyError(f"{type(self).__name__} is read-only")

    def __setitem__(self, *args: Any) -> NoReturn:
        self._refuse()

    def __delitem__(self, *args: Any) -> NoReturn:
        self._refuse()

    def __ior__(self, *args: Any) -> NoReturn:
        self._refuse()

    def clear(self) -> NoReturn:
        self._refuse()

    def pop(self, *args: Any) -> NoReturn:
        self._refuse()

    def popitem(self) -> NoReturn:
        self._refuse()

    def setdefault(self, *args: Any) -> NoReturn:
        self._refuse()

    def update(self, *args: Any, **kwargs: Any) -> NoReturn:
        self._refuse()

    def __reduce__(self) -> "tuple[type, tuple[dict]]":
        # copy/deepcopy/pickle rebuild through the constructor, not
        # through item assignment.
        return (type(self), (dict(self),))
