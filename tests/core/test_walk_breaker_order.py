"""The order in which a step-5 walk asks the circuit breaker.

Before any reservation call the walk asks the breaker about each server
an offer uses and stops at the first quarantined one.  Asking may turn
a due OPEN breaker HALF_OPEN and notify its observer, so the order is
behaviour: it is the order in which the offer first uses its servers,
never a set's iteration order (which follows ``PYTHONHASHSEED``).
"""

from types import SimpleNamespace

import pytest

from repro.client.machine import ClientMachine
from repro.core.enumeration import build_offer_space
from repro.core.negotiation import Walk
from repro.core.status import NegotiationStatus
from repro.documents.media import ColorMode
from repro.faults.health import BreakerState, CircuitBreaker
from repro.util.clock import ManualClock

from ..properties.strategies import (
    GRID_FLAVOURS,
    grid_document,
    grid_manager,
    grid_profile,
)

RECOVERY_S = 10.0


def quarantined_walk(rotate):
    """A two-monomedia offer whose first server is OPEN and not yet
    due, and whose second server is OPEN and due for its probe; the
    breaker's observer records every transition from here on."""
    clock = ManualClock()
    breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=RECOVERY_S)
    manager = grid_manager(
        [grid_document([GRID_FLAVOURS[:1]] * 2, rotate=rotate)],
        stream_caps=(4, 4, 4), clock=clock, health=breaker,
    )
    client = ClientMachine("walker", access_point="client-net")
    space = build_offer_space(
        manager.database.get_document("doc.grid"), client,
        manager.cost_model, mapper=manager.mapper,
        guarantee=manager.guarantee,
    )
    offer = space.offer_at(0)
    first, second = (v.server_id for v in offer.variants.values())
    breaker.record_failure(second, clock.now())
    clock.advance(RECOVERY_S / 2)
    breaker.record_failure(first, clock.now())
    clock.advance(RECOVERY_S / 2 + 1.0)
    transitions = []
    breaker.on_transition = lambda *change: transitions.append(change)
    profile = grid_profile((ColorMode.COLOR, 25), (ColorMode.COLOR, 25), 10**6)
    walk = Walk(manager, space, profile, client, pulled=[])
    return walk, SimpleNamespace(offer=offer), breaker, transitions, (first, second)


@pytest.mark.parametrize("rotate", range(3))
def test_the_first_used_server_answers_first(rotate):
    walk, candidate, breaker, transitions, (first, second) = (
        quarantined_walk(rotate)
    )
    result = walk.run([candidate], offers_in=1)
    assert result.status is NegotiationStatus.FAILED_TRY_LATER
    assert (walk.attempts, walk.breaker_skips) == (0, 1)
    # The quarantined first server refused; the due second one was
    # never asked, so it did not turn half-open.
    assert transitions == []
    assert breaker.health(first).state is BreakerState.OPEN
    assert breaker.health(second).state is BreakerState.OPEN


@pytest.mark.parametrize("rotate", range(3))
def test_a_due_first_server_is_probed_before_the_refusal(rotate):
    walk, candidate, breaker, transitions, (first, second) = (
        quarantined_walk(rotate)
    )
    now = walk.now()
    breaker.health(first).opened_at = now - RECOVERY_S  # now due too
    breaker.health(second).opened_at = now  # now quarantined afresh
    assert not walk._admits(candidate)
    assert transitions == [
        (first, BreakerState.OPEN, BreakerState.HALF_OPEN, now)
    ]
    assert breaker.health(second).state is BreakerState.OPEN
