"""Fingerprint-keyed LRU cache for the negotiation hot path.

One store, **spaces** — built
:class:`~repro.core.enumeration.OfferSpace`s, keyed by (document id,
document version, client capability fingerprint, guarantee, cost-model
fingerprint, mapper fingerprint).  The space is pure function of those
inputs, so a head-heavy request mix (ROADMAP's Zipf document
popularity) re-enumerates nothing.  The classified orders over a space
are memoised on the space itself (:mod:`repro.core.stream`), so they
live and die with its entry here.

Building a key is a lookup, not a hash, for the parts that do not
change between requests: the client and cost-model fingerprints are
memoised on their objects (:mod:`repro.perf.fingerprint`), the client's
stamped with its ``DecoderBank.version``.  Only the mapper is re-hashed
per request.

Invalidation rides on :meth:`MetadataDatabase.version_of`: every
catalog mutation bumps the document's version counter, which changes
the key, so stale entries simply stop being reachable and age out of
the LRU.

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

A process-wide instance lives behind :func:`shared_cache` for callers
that want reuse across deployments; every ``build_scenario`` deployment
plans through a private instance of its own.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
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
        return asdict(self)


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

    def clear(self) -> None:
        self._spaces.clear()


# -- the process-wide shared cache ------------------------------------------------
#
# Fingerprint keys exclude client identity, so any number of managers
# can share one cache's entries.  ``shared_cache()`` hands out one such
# instance per process; scenarios build their own instead.

_shared: "NegotiationCache | None" = None


def shared_cache() -> NegotiationCache:
    """The process-wide :class:`NegotiationCache`, created on first use
    with the disabled telemetry hub (its own ``stats`` counters are
    always live)."""
    global _shared
    if _shared is None:
        _shared = NegotiationCache()
    return _shared


def reset_shared_cache() -> "NegotiationCache | None":
    """Drop the shared instance (tests; telemetry rewiring).  Returns
    the old instance so a caller can drain its stats."""
    global _shared
    old = _shared
    _shared = None
    return old
