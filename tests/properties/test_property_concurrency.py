"""Concurrency properties of the negotiation service.

The scheduler seed changes *who runs when* — and nothing else that
matters: whatever the interleaving, every request gets one honest
verdict, the ledgers end empty, the journal reconciles balanced, and
the outcome multiset of a fixed workload is invariant.  A contended
deployment (one server, ten near-simultaneous identical requests, four
of which can fit) makes the invariance nontrivial: *which* negotiation
wins a slot depends on the interleaving, but *how many* never does.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProfileManager
from repro.journal import ReservationJournal
from repro.service import NegotiationService, ServicePolicy
from repro.sim import ScenarioSpec, build_scenario
from repro.telemetry.report import reconcile_journal

scheduler_seeds = st.integers(min_value=0, max_value=200)


def run_service(
    scheduler_seed, *, count=10, spacing_s=0.05, hold_s=30.0
):
    """A fixed contended workload under one scheduler seed.

    User behaviour is neutral (no jitter, no slow users, no rejects),
    so the seed steers the interleaving alone."""
    journal = ReservationJournal()
    scenario = build_scenario(
        ScenarioSpec(server_count=1, client_count=3, document_count=1),
        journal=journal,
    )
    policy = ServicePolicy(
        hold_s=hold_s,
        max_offers=2,
        confirm_jitter=0.0,
        slow_user_fraction=0.0,
        reject_fraction=0.0,
    )
    service = NegotiationService(
        scenario.manager,
        scenario.loop,
        policy=policy,
        scheduler_seed=scheduler_seed,
    )
    profile = ProfileManager().get("balanced")
    clients = list(scenario.clients.values())
    document = scenario.document_ids()[0]
    for index in range(count):
        scenario.loop.at(
            index * spacing_s,
            lambda i=index: service.submit(
                document,
                profile,
                clients[i % len(clients)],
                label=f"p-{i}",
            ),
        )
    scenario.loop.run()
    return scenario, service, journal


def status_multiset(service):
    return Counter(str(r.status) for r in service.requests)


def per_client_multisets(service):
    grouped = {}
    for request in service.requests:
        grouped.setdefault(request.client_id, []).append(
            str(request.status)
        )
    return {client: sorted(v) for client, v in grouped.items()}


BASELINE = None


def baseline_multiset():
    global BASELINE
    if BASELINE is None:
        _, service, _ = run_service(0)
        BASELINE = status_multiset(service)
    return BASELINE


@settings(max_examples=12, deadline=None)
@given(scheduler_seed=scheduler_seeds)
def test_every_interleaving_is_leak_free_and_honest(scheduler_seed):
    scenario, service, journal = run_service(scheduler_seed)
    # Every request got exactly one verdict — no starved client.
    assert service.unfinished() == []
    assert service.inflight == 0
    # The write-ahead journal reconciles: every RESERVED holder ends on
    # a terminal record.
    assert reconcile_journal(journal)["balanced"]
    # The final ledger state is empty — nothing outlives its session.
    assert sum(
        s.stream_count for s in scenario.servers.values()
    ) == 0
    assert scenario.transport.flow_count == 0
    assert scenario.topology.total_reserved_bps() == 0.0
    # Every refusal carries an honest, positive retry hint.
    for request in service.requests:
        if str(request.status) == "FAILEDTRYLATER":
            assert request.result.retry_after_s is not None
            assert request.result.retry_after_s > 0.0


@settings(max_examples=12, deadline=None)
@given(scheduler_seed=scheduler_seeds)
def test_outcome_multiset_is_interleaving_invariant(scheduler_seed):
    """Contended capacity: which negotiations win varies with the
    interleaving; how many win (and lose) does not."""
    _, service, _ = run_service(scheduler_seed)
    assert status_multiset(service) == baseline_multiset()
    # The workload genuinely contends — both verdicts occur.
    assert len(baseline_multiset()) >= 2


@settings(max_examples=8, deadline=None)
@given(scheduler_seed=scheduler_seeds)
def test_serialized_arrivals_pin_per_client_outcomes(scheduler_seed):
    """With arrivals spaced far beyond a negotiation's duration, the
    arrival order fully determines each client's outcomes — the
    scheduler seed must not be able to move a verdict between clients."""
    _, service, _ = run_service(scheduler_seed, spacing_s=2.0)
    _, base_service, _ = run_service(0, spacing_s=2.0)
    assert per_client_multisets(service) == per_client_multisets(
        base_service
    )


@settings(max_examples=6, deadline=None)
@given(scheduler_seed=scheduler_seeds)
def test_same_seed_is_byte_deterministic(scheduler_seed):
    _, first, _ = run_service(scheduler_seed)
    _, second, _ = run_service(scheduler_seed)
    assert [
        (r.label, str(r.status), r.finished_at) for r in first.requests
    ] == [
        (r.label, str(r.status), r.finished_at) for r in second.requests
    ]
