"""Negotiation throughput layer: the offer-space cache and its keys.

The §4 pipeline is a pure function of (document, client, profile,
tariffs) until step 5 touches shared resource state; this package
exploits that purity.  :mod:`repro.perf.cache` memoises built offer
spaces across requests; :mod:`repro.perf.fingerprint` provides the
value-identity keys.  Measuring is not done here: the repo's one
benchmark is ``benchmarks/e2e/run.py`` (``BENCHMARK.json``).
"""

from .cache import (
    CacheStats,
    NegotiationCache,
    reset_shared_cache,
    shared_cache,
)
from .fingerprint import (
    client_fingerprint,
    cost_model_fingerprint,
    importance_fingerprint,
    mapper_fingerprint,
    profile_fingerprint,
)

__all__ = [
    "CacheStats",
    "NegotiationCache",
    "client_fingerprint",
    "cost_model_fingerprint",
    "importance_fingerprint",
    "mapper_fingerprint",
    "profile_fingerprint",
    "reset_shared_cache",
    "shared_cache",
]
