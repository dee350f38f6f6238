"""The batch engine's equivalence contract, property-tested.

For ANY mix of requests — documents, profiles, clients, walk bounds,
duplicates, singletons — ``negotiate_batch`` on one deployment must
produce the same per-request ``(status, offer id, attempts)`` sequence
as the eager full-sort reference (``tests/oracle.py``) run request by
request on a twin deployment, with and without the shared cache.  This
is the randomized version of
``tests/integration/test_pipeline_equivalence.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchRequest, negotiate_batch
from repro.core.profile_manager import standard_profiles
from repro.sim import ScenarioSpec, build_scenario
from tests.oracle import reference_negotiate, signature

PROFILES = standard_profiles()
SPEC = ScenarioSpec(server_count=2, client_count=2, document_count=2)

# One request = (document index, profile index, client index,
# max-offers index).  Indexes keep the strategy shrinkable and are
# resolved against the concrete deployment inside the test.
MAX_OFFERS = (None, 1, 3)

requests_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=len(PROFILES) - 1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=len(MAX_OFFERS) - 1),
    ),
    min_size=1,
    max_size=12,
)


def resolve(scenario, script):
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    return [
        BatchRequest(
            document=documents[d],
            profile=PROFILES[p],
            client=clients[c],
            max_offers=MAX_OFFERS[k],
        )
        for d, p, c, k in script
    ]


def run_sequential(scenario, script, release):
    signatures = []
    for request in resolve(scenario, script):
        result = reference_negotiate(
            scenario.manager,
            request.document,
            request.profile,
            request.client,
            max_offers=request.max_offers,
        )
        signatures.append(signature(result))
        if release and result.commitment is not None:
            result.commitment.release()
    return signatures


def run_batched(scenario, script, release):
    def after_each(request, result):
        if release and result.commitment is not None:
            result.commitment.release()

    results = negotiate_batch(
        scenario.manager, resolve(scenario, script), after_each=after_each
    )
    return [signature(result) for result in results]


class TestBatchedEqualsSequential:
    @given(requests_strategy, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_equivalence_without_cache(self, script, release):
        sequential = build_scenario(SPEC)
        batched = build_scenario(SPEC)
        assert run_batched(batched, script, release) == run_sequential(
            sequential, script, release
        )

    @given(requests_strategy, st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_equivalence_with_shared_cache(self, script, release):
        """The cached batch path must still match the cold sequential
        reference."""
        sequential = build_scenario(SPEC)
        batched = build_scenario(SPEC, use_cache=True)
        assert run_batched(batched, script, release) == run_sequential(
            sequential, script, release
        )

    @given(requests_strategy)
    @settings(max_examples=10, deadline=None)
    def test_batching_is_idempotent_across_twins(self, script):
        """Two identical batched deployments agree with each other —
        the engine has no hidden per-process state."""
        first = build_scenario(SPEC, use_cache=True)
        second = build_scenario(SPEC, use_cache=True)
        assert run_batched(first, script, True) == run_batched(
            second, script, True
        )
