"""Fingerprint-keyed LRU cache for the negotiation hot path.

One store, **spaces** — built
:class:`~repro.core.enumeration.OfferSpace`s, keyed by (document id,
document version, client capability fingerprint, guarantee, cost-model
fingerprint, mapper fingerprint).  The space is pure function of those
inputs, so a head-heavy request mix (ROADMAP's Zipf document
popularity) re-enumerates nothing.  The ordering of a space is lazy
(:mod:`repro.core.stream`) and is not cached.

Building a key is a lookup, not a hash, for the parts that do not
change between requests: the client and cost-model fingerprints are
memoised on their objects (:mod:`repro.perf.fingerprint`), the client's
stamped with its ``DecoderBank.version``.  Only the mapper is re-hashed
per request.

Invalidation rides on :meth:`MetadataDatabase.version_of`: every
catalog mutation bumps the document's version counter, which changes
the key, so stale entries simply stop being reachable and age out of
the LRU.  :meth:`NegotiationCache.invalidate_document` drops them
eagerly when memory matters.

Requests carrying a preference ``variant_filter`` build per-user
spaces and must bypass the cache entirely — that decision is made by
the caller (``QoSManager``), which is the only place that knows.

Hits, misses and evictions are counted both on :class:`CacheStats`
(always, for tests and the benchmark) and through the telemetry hub
under ``cache.hits`` / ``cache.misses`` / ``cache.evictions`` /
``cache.flushes`` with a ``store`` label.  Explicit :meth:`clear`
flushes are deliberately *not* evictions: the SLO layer reads the
eviction-rate series as a capacity-pressure signal, and a test or
shutdown flush would pollute it.

The process-wide instance lives behind :func:`shared_cache`; reprolint
REP018 flags any private ``NegotiationCache(...)`` constructed outside
this module so cross-client reuse is the default, not an accident.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..client.machine import ClientMachine
from ..core.cost import CostModel
from ..core.enumeration import OfferSpace
from ..core.mapping import QoSMapper
from ..network.transport import GuaranteeType
from ..telemetry import Telemetry
from ..util.errors import ValidationError
from .fingerprint import (
    client_fingerprint,
    cost_model_fingerprint,
    mapper_fingerprint,
)

__all__ = [
    "CacheStats",
    "NegotiationCache",
    "shared_cache",
    "reset_shared_cache",
]

SPACES = "spaces"
# No store has this name any more; its counters stay at 0 because
# benchmarks/e2e/harness.py indexes them in CacheStats.as_dict().
CLASSIFICATIONS = "classifications"


@dataclass
class CacheStats:
    """Per-store hit/miss/eviction/flush counters."""

    hits: dict[str, int] = field(
        default_factory=lambda: {SPACES: 0, CLASSIFICATIONS: 0}
    )
    misses: dict[str, int] = field(
        default_factory=lambda: {SPACES: 0, CLASSIFICATIONS: 0}
    )
    evictions: dict[str, int] = field(
        default_factory=lambda: {SPACES: 0, CLASSIFICATIONS: 0}
    )
    flushes: dict[str, int] = field(
        default_factory=lambda: {SPACES: 0, CLASSIFICATIONS: 0}
    )

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "evictions": dict(self.evictions),
            "flushes": dict(self.flushes),
        }


class _LRUStore:
    """One bounded LRU mapping with stats + telemetry accounting."""

    def __init__(
        self,
        name: str,
        max_entries: int,
        stats: CacheStats,
        telemetry: Telemetry,
    ) -> None:
        if max_entries < 1:
            raise ValidationError(
                f"cache store {name!r} needs max_entries >= 1, "
                f"got {max_entries}"
            )
        self.name = name
        self.max_entries = max_entries
        self._stats = stats
        self._telemetry = telemetry
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable, compute: "Callable[[], object]") -> object:
        """Get or build.  A hit refreshes the entry; a miss is counted,
        then built and stored, evicting the eldest entry past the
        bound.  A ``compute`` that raises leaves no entry behind."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._stats.hits[self.name] += 1
            self._telemetry.count("cache.hits", store=self.name)
            return entry
        self._stats.misses[self.name] += 1
        self._telemetry.count("cache.misses", store=self.name)
        value = compute()
        self._entries[key] = value
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evicted(1)
        return value

    def drop_where(self, predicate: "Callable[[Hashable], bool]") -> int:
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        if doomed:
            self._evicted(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Flush every entry.  Counted under ``cache.flushes`` — an
        explicit flush is not capacity pressure, and the SLO layer's
        eviction-rate series must not see it."""
        if self._entries:
            self._flushed(len(self._entries))
        self._entries.clear()

    def _evicted(self, count: int) -> None:
        self._stats.evictions[self.name] += count
        self._telemetry.count("cache.evictions", float(count), store=self.name)

    def _flushed(self, count: int) -> None:
        self._stats.flushes[self.name] += count
        self._telemetry.count("cache.flushes", float(count), store=self.name)


class NegotiationCache:
    """The process-wide negotiation cache (built offer spaces)."""

    def __init__(
        self,
        *,
        max_spaces: int = 128,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.telemetry = telemetry or Telemetry.disabled()
        self.stats = CacheStats()
        self._spaces = _LRUStore(
            SPACES, max_spaces, self.stats, self.telemetry
        )

    # -- keys ---------------------------------------------------------------------

    @staticmethod
    def space_key(
        *,
        document_id: str,
        version: int,
        client: ClientMachine,
        guarantee: GuaranteeType,
        cost_model: CostModel,
        mapper: QoSMapper,
    ) -> tuple[str, int, str, str, str, str]:
        return (
            document_id,
            version,
            client_fingerprint(client),
            guarantee.value,
            cost_model_fingerprint(cost_model),
            mapper_fingerprint(mapper),
        )

    # -- lookups ------------------------------------------------------------------

    def offer_space(
        self,
        key: "tuple[str, int, str, str, str, str]",
        build: "Callable[[], OfferSpace]",
    ) -> OfferSpace:
        """The cached offer space for ``key``, building on miss."""
        space = self._spaces.lookup(key, build)
        assert isinstance(space, OfferSpace)
        return space

    # -- maintenance --------------------------------------------------------------

    def invalidate_document(self, document_id: str) -> int:
        """Eagerly drop every entry derived from ``document_id``.

        Version-keyed lookups already make stale entries unreachable;
        this reclaims their memory immediately (e.g. on document
        removal).  Returns the number of entries dropped.
        """
        return self._spaces.drop_where(lambda key: key[0] == document_id)

    def clear(self) -> None:
        self._spaces.clear()

    @property
    def entry_counts(self) -> dict[str, int]:
        return {SPACES: len(self._spaces)}


# -- the process-wide shared cache ------------------------------------------------
#
# One cache per process is the point of fingerprint keys: they already
# exclude client identity, so every manager/service/storm instance can
# (and should) share entries.  ``shared_cache()`` is the sanctioned
# accessor — reprolint REP018 flags ``NegotiationCache(...)`` calls
# anywhere else, so private caches must justify themselves.

_shared: "NegotiationCache | None" = None


def shared_cache(telemetry: "Telemetry | None" = None) -> NegotiationCache:
    """The process-wide :class:`NegotiationCache`, created on first use.

    ``telemetry`` only matters on the creating call; later callers get
    the existing instance unchanged (the cache's own ``stats`` counters
    are always live regardless).
    """
    global _shared
    if _shared is None:
        _shared = NegotiationCache(telemetry=telemetry)
    return _shared


def reset_shared_cache() -> "NegotiationCache | None":
    """Drop the shared instance (tests; telemetry rewiring).  Returns
    the old instance so a caller can drain its stats."""
    global _shared
    old = _shared
    _shared = None
    return old
