"""One server's ledger under every interleaving, against a re-summing
reference.

A hypothesis state machine drives one :class:`MediaServer` through
admissions, releases in arbitrary order and of the newest stream (which
the server answers from an undo stack, not a re-sum), a release
swallowed by a fault hook, crashes, restarts that keep or wipe the ledger, brownouts and the
``degradation_limits_admission`` switch.  After every step whatever the
server answers — the whole :class:`AdmissionDecision` for a handful of
probe rates, the shed holders, utilisation, aggregate rate, stream
count — must equal, bit for bit and text included, what
``tests/oracle.py`` rebuilds from ``stream_rates()`` with plain
left-to-right loops.  The fleets are sized so that capacity is
*exactly* k streams of ``EXACT_RATE`` on each rule in turn, and rates
that no binary fraction represents (a third, a seventh) keep the totals
within an ulp of those limits, where a sum taken in another order or
kept up by subtraction answers differently.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cmfs.admission import AdmissionController
from repro.cmfs.disk import DiskModel
from repro.cmfs.server import MediaServer
from repro.util.errors import AdmissionError, ServerCrashedError

from ..oracle import (
    reference_admission,
    reference_aggregate_rate_bps,
    reference_disk_utilization,
    reference_violated_holders,
)

EXACT_RATE = 8e6
K = 4

# 8 Mbit/s costs 1/16 s of transfer plus 1/16 s of positioning in a
# half-second round: four streams fill it to the bit.
EXACT_DISK = DiskModel(
    transfer_rate_bps=64e6, avg_seek_s=0.03125,
    rotational_latency_s=0.03125, round_s=0.5,
)
LOOSE_DISK = DiskModel(
    transfer_rate_bps=1e12, avg_seek_s=1e-6,
    rotational_latency_s=1e-6, round_s=0.5,
)
UNLIMITED = dict(buffer_bits=1e15, nic_bps=1e15, max_streams=1000)

# name -> (disk, controller limits, the rule K + 1 streams of EXACT_RATE hit)
FLEETS = {
    "streams": (LOOSE_DISK, {**UNLIMITED, "max_streams": K}, "streams"),
    "disk": (EXACT_DISK, UNLIMITED, "disk"),
    # One stream double-buffers 2 * rate * 0.5 s = rate bits.
    "buffer": (LOOSE_DISK, {**UNLIMITED, "buffer_bits": K * EXACT_RATE}, "buffer"),
    "nic": (LOOSE_DISK, {**UNLIMITED, "nic_bps": K * EXACT_RATE}, "nic"),
    # E7's server that admits everything: only a brownout says no.
    "lax": (
        EXACT_DISK,
        dict(
            UNLIMITED, enforce_disk=False, enforce_buffer=False,
            enforce_nic=False,
        ),
        None,
    ),
    "stock": (DiskModel(), {}, "disk"),
}

RATES = st.one_of(
    st.sampled_from([
        EXACT_RATE, EXACT_RATE / 2, EXACT_RATE / 3, EXACT_RATE / 7,
        EXACT_RATE / 10, 0.1,
    ]),
    st.floats(min_value=1e4, max_value=2e7, allow_nan=False),
)
PROBES = (EXACT_RATE, EXACT_RATE / 3, 1e5, 0.1, 2e7)
DEGRADATIONS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def build_server(fleet):
    disk, limits, _ = FLEETS[fleet]
    return MediaServer(
        "server-a", disk=disk,
        admission=AdmissionController(disk=disk, **limits),
    )


class SwallowReleases:
    """The fault hook of a lost release: the call returns, the ledger
    keeps the stream."""

    def before_admit(self, server, variant_id, rate_bps):
        pass

    def intercept_stream_release(self, server, stream_id):
        return True


class AdmissionLedgerMachine(RuleBasedStateMachine):
    @initialize(fleet=st.sampled_from(sorted(FLEETS)))
    def build(self, fleet):
        self.server = build_server(fleet)
        self.holders = (f"holder-{n}" for n in itertools.count(1))

    def _held(self, index):
        held = self.server.reservations()
        return held[index % len(held)]

    @rule(rate=RATES)
    def admit(self, rate):
        server, holder = self.server, next(self.holders)
        before = server.reservations()
        if server.is_crashed:
            with pytest.raises(ServerCrashedError):
                server.admit("variant", rate, holder=holder)
        else:
            expected = reference_admission(server, rate)
            if expected:
                reservation = server.admit("variant", rate, holder=holder)
                assert server.reservations() == before + (reservation,)
                return
            with pytest.raises(AdmissionError) as refusal:
                server.admit("variant", rate, holder=holder)
            assert str(refusal.value).endswith(
                f"{expected.limiting_resource} ({expected.detail})"
            )
        assert server.reservations() == before

    @precondition(lambda self: self.server.stream_count)
    @rule(index=st.integers(min_value=0))
    def release(self, index):
        victim = self._held(index)
        self.server.release(victim)
        assert not self.server.has_stream(victim.stream_id)

    @precondition(lambda self: self.server.stream_count)
    @rule()
    def release_latest(self):
        """The newest stream leaves: what a refused attempt's rollback
        does on each server it touched once, answered from the load
        kept before that stream's admission."""
        victim = self.server.reservations()[-1]
        self.server.release(victim)
        assert not self.server.has_stream(victim.stream_id)

    @precondition(lambda self: self.server.stream_count)
    @rule(index=st.integers(min_value=0))
    def swallowed_release(self, index):
        server, before = self.server, self.server.reservations()
        server.fault_hook = SwallowReleases()
        try:
            server.release(self._held(index))
        finally:
            server.fault_hook = None
        assert server.reservations() == before

    @rule()
    def crash(self):
        self.server.crash()

    @rule()
    def restart(self):
        self.server.restart()
        assert self.server.reservations() == ()

    @rule(fraction=DEGRADATIONS)
    def set_degradation(self, fraction):
        self.server.set_degradation(fraction)

    @rule(limits=st.booleans())
    def degradation_limits_admission(self, limits):
        self.server.degradation_limits_admission = limits

    @invariant()
    def answers_what_a_re_sum_answers(self):
        server = self.server
        for probe in PROBES:
            assert server.can_admit(probe) == reference_admission(server, probe)
        assert server.violated_holders() == reference_violated_holders(server)
        assert server.disk_utilization == reference_disk_utilization(server)
        assert server.aggregate_rate_bps == reference_aggregate_rate_bps(server)
        assert server.stream_count == len(server.stream_rates())

    @invariant()
    def ledger_order_is_admission_order(self):
        sequences = [r.sequence for r in self.server.reservations()]
        assert all(a < b for a, b in zip(sequences, sequences[1:]))


AdmissionLedgerMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestAdmissionLedger = AdmissionLedgerMachine.TestCase


@pytest.mark.parametrize(
    "fleet", [name for name, (_, _, rule_hit) in FLEETS.items() if rule_hit]
)
def test_each_fleet_holds_what_it_says(fleet):
    """K streams of EXACT_RATE fit the four sized fleets with nothing
    to spare, and the next one is refused by the rule the fleet is
    named for (the stock server is only checked against the
    reference)."""
    server = build_server(fleet)
    limiting = FLEETS[fleet][2]
    admitted = 0
    while server.can_admit(EXACT_RATE):
        server.admit(f"variant-{admitted}", EXACT_RATE)
        admitted += 1
    refusal = server.can_admit(EXACT_RATE)
    assert refusal == reference_admission(server, EXACT_RATE)
    assert refusal.limiting_resource == limiting
    if fleet != "stock":
        assert admitted == K


def test_half_a_round_holds_exactly_half_the_streams():
    """The degraded budget on the exact disk: a 50 % brownout leaves
    room for two of the four streams, to the bit."""
    server = build_server("lax")
    server.degradation_limits_admission = True
    server.set_degradation(0.5)
    held = [
        server.admit(f"variant-{n}", EXACT_RATE, holder=f"holder-{n}")
        for n in range(2)
    ]
    assert server.violated_holders() == frozenset()
    refusal = server.can_admit(EXACT_RATE)
    assert not refusal and "degraded budget" in refusal.detail
    assert refusal == reference_admission(server, EXACT_RATE)
    server.degradation_limits_admission = False
    server.admit("variant-2", EXACT_RATE, holder="holder-2")
    assert server.violated_holders() == {"holder-2"}
    server.release(held[0])
    assert server.violated_holders() == frozenset()
