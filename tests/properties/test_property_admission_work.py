"""What an admission question costs, counted — no clock is read.

``MediaServer`` keeps the totals its admission rules read and rebuilds
them from the ledger (``MediaServer._summed_ledger``) only when a
stream has left since they were last known.  A counting wrapper around
that one routine holds the promise: a question against an unchanged
ledger, a run of admissions and a swallowed release rebuild nothing,
and a burst of releases is paid for once, by the next question.
``AdmissionController.headroom`` is held the same way, by the rates its
one accumulation routine is handed.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.machine import ClientMachine
from repro.cmfs.admission import AdmissionController
from repro.cmfs.disk import DiskModel
from repro.cmfs.server import MediaServer
from repro.core.enumeration import build_offer_space
from repro.util.errors import AdmissionError

from .strategies import GRID_FLAVOURS, grid_document, grid_manager
from .test_property_admission_ledger import SwallowReleases

RATE = 1e5  # the stock server holds dozens of these


@contextmanager
def counted_rebuilds():
    """``MediaServer._summed_ledger`` calls per server id."""
    rebuilds = Counter()
    summed_ledger = MediaServer._summed_ledger

    def counting(server):
        rebuilds[server.server_id] += 1
        return summed_ledger(server)

    with mock.patch.object(MediaServer, "_summed_ledger", counting):
        yield rebuilds


def full_server(cap=8):
    server = MediaServer(
        "server-a", admission=AdmissionController(DiskModel(), max_streams=cap)
    )
    held = [server.admit(f"variant-{n}", RATE) for n in range(cap)]
    return server, held


class TestRebuildsCounted:
    @pytest.mark.parametrize("questions", [1, 50])
    def test_a_full_server_refuses_from_what_it_knows(self, questions):
        server, held = full_server()
        server.release(held[3])
        server.admit("variant-8", RATE)  # the first read after the release
        with counted_rebuilds() as rebuilds:
            for _ in range(questions):
                with pytest.raises(AdmissionError):
                    server.admit("one-too-many", RATE)
                assert not server.can_admit(RATE)
        assert not rebuilds

    def test_admissions_in_a_row_append(self):
        server = MediaServer("server-a")
        assert server.stream_count == server.aggregate_rate_bps == 0
        with counted_rebuilds() as rebuilds:
            for n in range(20):
                server.admit(f"variant-{n}", RATE)
            assert server.aggregate_rate_bps == 20 * RATE
            assert 0.0 < server.disk_utilization < 1.0
        assert not rebuilds

    def test_a_release_burst_is_paid_for_once(self):
        server, held = full_server()
        with counted_rebuilds() as rebuilds:
            for reservation in held[::2]:
                server.release(reservation)
            assert not rebuilds  # nobody has asked yet
            assert server.can_admit(RATE)
            server.admit("variant-8", RATE)
            assert server.aggregate_rate_bps == 5 * RATE
        assert rebuilds == {"server-a": 1}

    def test_a_swallowed_release_changes_nothing(self):
        server, held = full_server()
        server.fault_hook = SwallowReleases()
        with counted_rebuilds() as rebuilds:
            server.release(held[0])
            assert not server.can_admit(RATE)
        assert not rebuilds and server.stream_count == len(held)

    def test_a_wiping_restart_and_a_new_controller_drop_the_load(self):
        server, _ = full_server()
        with counted_rebuilds() as rebuilds:
            server.crash()
            server.restart(preserve_streams=True)
            assert not server.can_admit(RATE)
            assert not rebuilds
            server.crash()
            server.restart()
            assert server.aggregate_rate_bps == 0.0
            assert rebuilds == {"server-a": 1}
            server.admission = AdmissionController(server.disk, max_streams=1)
            server.admit("variant", RATE)
            assert not server.can_admit(RATE)
        assert rebuilds == {"server-a": 2}

    def test_a_rolled_back_attempt_costs_each_server_one_rebuild(self):
        """One offer of five streams on servers a, b, c, a, b; server-b
        holds one, so the fifth admission is refused and the attempt
        gives back two streams on server-a, one on b and one on c."""
        manager = grid_manager(
            [grid_document([GRID_FLAVOURS[:1]] * 5)], stream_caps=(4, 1, 4)
        )
        client = ClientMachine("walker", access_point="client-net")
        space = build_offer_space(
            manager.database.get_document("doc.grid"), client,
            manager.cost_model, mapper=manager.mapper,
            guarantee=manager.guarantee,
        )
        servers = manager.committer.servers
        for server in servers.values():
            assert server.stream_count == server.aggregate_rate_bps == 0
        with counted_rebuilds() as rebuilds:
            bundle = manager.committer.try_commit(
                space.offer_at(0), space, client.access_point,
                guarantee=manager.guarantee, holder="holder-1",
            )
            assert bundle is None
            assert not rebuilds  # taking and giving back asked nothing
            for _ in range(3):
                for server in servers.values():
                    assert server.can_admit(RATE)
        assert rebuilds == dict.fromkeys(servers, 1)


STEPS = st.lists(
    st.sampled_from(
        ["admit", "refused", "release", "swallowed", "ask", "shed", "wipe"]
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps=STEPS, picks=st.randoms(use_true_random=False))
def test_rebuilds_equal_release_bursts_that_were_asked_about(steps, picks):
    """The whole rule: the load is rebuilt exactly when something reads
    it after a stream has really left, whatever happens in between."""
    server = MediaServer("server-a")
    server.set_degradation(0.5)
    assert server.stream_count == server.aggregate_rate_bps == 0
    stale, expected = False, 0
    with counted_rebuilds() as rebuilds:
        for step in steps:
            held = server.reservations()
            reads = True
            if step == "admit":
                server.admit("variant", RATE)
            elif step == "refused":
                with pytest.raises(AdmissionError):
                    server.admit("variant", 1e9)
            elif step == "ask":
                server.can_admit(RATE)
            elif step == "shed":
                server.violated_holders()
            elif step == "wipe":
                server.crash()
                server.restart()
                stale, reads = True, False
            elif not held:
                continue
            elif step == "release":
                server.release(picks.choice(held))
                stale, reads = True, False
            else:
                server.fault_hook = SwallowReleases()
                server.release(picks.choice(held))
                server.fault_hook = None
                reads = False
            if reads and stale:
                stale, expected = False, expected + 1
            assert rebuilds["server-a"] == expected


class TestHeadroomWork:
    def test_headroom_sums_the_ledger_once(self):
        """One pass over the held rates, then one term per probe of the
        bisection (at most 49), instead of a re-sum per probe."""
        controller = AdmissionController(DiskModel())
        held = [6e6] * 4
        visited = []
        extended = AdmissionController.extended

        def counting(self, load, rates_bps):
            rates_bps = list(rates_bps)
            visited.append(len(rates_bps))
            return extended(self, load, rates_bps)

        with mock.patch.object(AdmissionController, "extended", counting):
            headroom = controller.headroom(held)
        assert visited[0] == len(held) and set(visited[1:]) == {1}
        assert len(visited) <= 1 + 49
        assert controller.evaluate(held, headroom)
        assert not controller.evaluate(held, headroom * 1.01)
