"""Every way of running the procedure reaches the same verdicts.

Request by request, request by request behind ``shared_cache()``, and
as one ``negotiate_batch``: on twin deployments the three must agree on
``(status, offer id, attempts)`` round for round, and wherever the
offer space is small enough to sort in full, so must the eager
reference of ``tests/oracle.py``.  The cells are the ones the retired
``repro bench`` gated on: 2^2, 4^4 and 4^6 single documents, and a
four-document 4^10 catalogue requested under Zipf(1.2) popularity with
``max_offers=64``.  Each runs twice: rejecting every commitment at once
(pristine ledgers, first-offer verdicts) and keeping them under tight
stream caps (later rounds walk deep, the larger cells until nothing
fits).
"""

import numpy as np
import pytest

from repro.batch import BatchRequest, negotiate_batch
from repro.client.machine import ClientMachine
from repro.core import QoSManager
from repro.perf import reset_shared_cache, shared_cache
from tests.oracle import reference_negotiate, signature
from tests.properties.strategies import (
    GRID_FLAVOURS,
    grid_document,
    grid_manager,
    grid_profile,
)

ROUNDS = 12
ORACLE_CEILING = 5_000
ROOMY_CAPS = (256, 256, 256)
TIGHT_CAPS = (10, 20, 40)
# Best first: a document with V variants per axis takes the first V.
# The profile tolerates colour down to 10 fps, so the grey fourth
# flavour makes CONSTRAINT offers.
FLAVOURS = GRID_FLAVOURS[:4]
PROFILE = grid_profile(FLAVOURS[0], FLAVOURS[2], 50_000)

CELLS = [
    pytest.param(2, 2, 1, None, id="2^2"),
    pytest.param(4, 4, 1, None, id="4^4"),
    pytest.param(4, 6, 1, None, id="4^6"),
    pytest.param(4, 10, 4, 64, id="4^10x4-zipf"),
]


def zipf_schedule(documents, rounds):
    ranks = np.arange(1, len(documents) + 1, dtype=np.float64)
    weights = ranks ** -1.2
    picks = np.random.default_rng(1996).choice(
        len(documents), size=rounds, p=weights / weights.sum()
    )
    return [documents[int(pick)].document_id for pick in picks]


@pytest.fixture(autouse=True)
def cold_shared_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


@pytest.mark.parametrize("keep", [False, True], ids=["reject", "keep"])
@pytest.mark.parametrize("variants, axes, catalogue, max_offers", CELLS)
def test_configurations_agree(variants, axes, catalogue, max_offers, keep):
    # Catalogue siblings differ in name and in server placement.
    documents = [
        grid_document(
            [FLAVOURS[:variants]] * axes,
            document_id=f"doc.cell-{variants}x{axes}.d{index + 1}",
            rotate=index,
        )
        for index in range(catalogue)
    ]
    schedule = zipf_schedule(documents, ROUNDS)
    caps = TIGHT_CAPS if keep else ROOMY_CAPS
    client = ClientMachine("cell-client", access_point="client-net")

    def settle(manager, result):
        if not keep and result.commitment is not None:
            result.commitment.reject(manager.clock.now())

    def one_by_one(negotiate, cache=None):
        manager = grid_manager(documents, caps, cache=cache)
        signatures = []
        for document_id in schedule:
            result = negotiate(
                manager, document_id, PROFILE, client, max_offers=max_offers
            )
            signatures.append(signature(result))
            settle(manager, result)
        return signatures

    def batched():
        manager = grid_manager(documents, caps, cache=shared_cache())
        results = negotiate_batch(
            manager,
            [
                BatchRequest(
                    document_id, PROFILE, client, max_offers=max_offers
                )
                for document_id in schedule
            ],
            after_each=lambda request, result: settle(manager, result),
        )
        return [signature(result) for result in results]

    runs = {
        "sequential": one_by_one(QoSManager.negotiate),
        "sequential+cache": one_by_one(QoSManager.negotiate, shared_cache()),
        "batch": batched(),
    }
    if variants ** axes <= ORACLE_CEILING:
        runs["oracle"] = one_by_one(reference_negotiate)
    expected = runs["sequential"]
    for label, signatures in runs.items():
        assert signatures == expected, label
    if keep:
        assert max(attempts for _, _, attempts in expected) > 1
    else:
        assert {status for status, _, _ in expected} == {"SUCCEEDED"}
