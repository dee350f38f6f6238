"""REP018 fixture (clean): the process-wide accessor, the test-reset
helper, and static key access — no private construction."""

from repro.perf.cache import NegotiationCache, reset_shared_cache, shared_cache


def manager_cache():
    return shared_cache()


def isolated_run():
    reset_shared_cache()
    return shared_cache()


def key_helper(**inputs):
    # Static-method access is not a construction.
    return NegotiationCache.space_key(**inputs)
