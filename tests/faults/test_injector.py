"""The fault injector against a live deployment."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.network.qosparams import FlowSpec
from repro.util.errors import (
    FaultTimeoutError,
    NotFoundError,
    ServerCrashedError,
    SimulationError,
    TransientFaultError,
)


def make_injector(plan, servers, transport, clock, **kwargs):
    injector = FaultInjector(plan, clock=clock, **kwargs)
    injector.install(servers, transport)
    return injector


@pytest.fixture
def flow_spec():
    return FlowSpec(
        max_bit_rate=2e6, avg_bit_rate=1e6, max_delay_s=0.5,
        max_jitter_s=0.1, max_loss_rate=0.01,
    )


class TestTransientRefusal:
    def test_refusal_budget(self, servers, transport, clock):
        plan = FaultPlan(
            (FaultSpec(FaultKind.TRANSIENT_REFUSAL, "server-a", value=2),)
        )
        injector = make_injector(plan, servers, transport, clock)
        server = servers["server-a"]
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                server.admit("v1", 1e6)
        # Budget exhausted: the third call goes through.
        reservation = server.admit("v1", 1e6)
        assert server.has_stream(reservation.stream_id)
        assert injector.stats.transient_refusals == 2

    def test_window_gates_refusals(self, servers, transport, clock):
        plan = FaultPlan(
            (FaultSpec(FaultKind.TRANSIENT_REFUSAL, "server-a",
                       start_s=10.0, duration_s=10.0),)
        )
        make_injector(plan, servers, transport, clock)
        server = servers["server-a"]
        server.admit("v1", 1e6)  # t=0: window not open yet
        clock.advance_to(15.0)
        with pytest.raises(TransientFaultError):
            server.admit("v1", 1e6)
        clock.advance_to(25.0)
        server.admit("v1", 1e6)  # window closed again

    def test_other_servers_unaffected(self, servers, transport, clock):
        plan = FaultPlan(
            (FaultSpec(FaultKind.TRANSIENT_REFUSAL, "server-a"),)
        )
        make_injector(plan, servers, transport, clock)
        servers["server-b"].admit("v1", 1e6)  # no raise

    def test_wildcard_target(self, servers, transport, clock):
        plan = FaultPlan((FaultSpec(FaultKind.TRANSIENT_REFUSAL, "*"),))
        make_injector(plan, servers, transport, clock)
        for server in servers.values():
            with pytest.raises(TransientFaultError):
                server.admit("v1", 1e6)

    def test_probability_draws_are_seeded(self, topology, clock):
        from repro.cmfs import MediaServer
        from repro.network import TransportSystem

        def refusal_pattern(seed):
            servers = {"server-a": MediaServer("server-a")}
            transport = TransportSystem(topology)
            plan = FaultPlan(
                (FaultSpec(FaultKind.TRANSIENT_REFUSAL, "server-a",
                           probability=0.5),),
                seed=seed,
            )
            make_injector(plan, servers, transport, clock)
            pattern = []
            for _ in range(20):
                try:
                    servers["server-a"].admit("v1", 1e5)
                    pattern.append(False)
                except TransientFaultError:
                    pattern.append(True)
            return pattern

        assert refusal_pattern(3) == refusal_pattern(3)
        assert True in refusal_pattern(3) and False in refusal_pattern(3)


class TestSlowAdmission:
    def test_latency_below_timeout_is_absorbed(self, servers, transport, clock):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SLOW_ADMISSION, "server-a", value=0.4),)
        )
        injector = make_injector(
            plan, servers, transport, clock, attempt_timeout_s=1.0
        )
        servers["server-a"].admit("v1", 1e6)  # slow but within budget
        assert injector.stats.slow_admissions == 1
        assert injector.stats.timeouts == 0
        assert injector.stats.injected_latency_s == pytest.approx(0.4)

    def test_latency_above_timeout_raises(self, servers, transport, clock):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SLOW_ADMISSION, "server-a", value=2.5),)
        )
        injector = make_injector(
            plan, servers, transport, clock, attempt_timeout_s=1.0
        )
        with pytest.raises(FaultTimeoutError):
            servers["server-a"].admit("v1", 1e6)
        assert injector.stats.timeouts == 1
        assert servers["server-a"].stream_count == 0


class TestLostRelease:
    def test_stream_release_swallowed_in_window(self, servers, transport, clock):
        plan = FaultPlan(
            (FaultSpec(FaultKind.LOST_RELEASE, "server-a", duration_s=60.0),)
        )
        injector = make_injector(plan, servers, transport, clock)
        server = servers["server-a"]
        reservation = server.admit("v1", 1e6)
        server.release(reservation)
        assert server.has_stream(reservation.stream_id)  # leaked
        assert injector.stats.lost_releases == 1
        # After the fault window the same release goes through.
        clock.advance_to(61.0)
        server.release(reservation)
        assert not server.has_stream(reservation.stream_id)

    def test_flow_release_swallowed(self, servers, transport, clock, flow_spec):
        plan = FaultPlan(
            (FaultSpec(FaultKind.LOST_RELEASE, "transport",
                       duration_s=60.0),)
        )
        injector = make_injector(plan, servers, transport, clock)
        flow = transport.reserve("server-a-net", "client-net", flow_spec)
        transport.release(flow)
        assert transport.has_flow(flow.flow_id)  # leaked
        assert injector.stats.lost_releases == 1
        clock.advance_to(61.0)
        transport.release(flow)
        assert not transport.has_flow(flow.flow_id)


class TestTimedFaults:
    def test_crash_and_restart_windows(self, servers, transport, clock, loop):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "server-a",
                       start_s=2.0, duration_s=5.0),)
        )
        injector = make_injector(plan, servers, transport, clock)
        injector.arm(loop)
        server = servers["server-a"]
        observed = {}
        loop.at(3.0, lambda: observed.setdefault("during", server.is_crashed))
        loop.at(8.0, lambda: observed.setdefault("after", server.is_crashed))
        loop.run()
        assert observed == {"during": True, "after": False}
        assert injector.stats.crashes == 1
        assert injector.stats.restarts == 1

    def test_crashed_server_rejects_admissions(self, servers, transport, clock, loop):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "server-a", start_s=1.0),)
        )
        injector = make_injector(plan, servers, transport, clock)
        injector.arm(loop)

        def probe():
            with pytest.raises(ServerCrashedError):
                servers["server-a"].admit("v1", 1e6)

        loop.at(2.0, probe)
        loop.run()

    def test_restart_wipes_the_ledger(self, servers, transport, clock, loop):
        server = servers["server-a"]
        server.admit("v1", 1e6)
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "server-a",
                       start_s=1.0, duration_s=2.0),)
        )
        injector = make_injector(plan, servers, transport, clock)
        injector.arm(loop)
        loop.run()
        assert server.stream_count == 0  # in-memory ledger lost

    def test_link_flap_and_heal(self, servers, transport, topology, clock, loop):
        plan = FaultPlan(
            (FaultSpec(FaultKind.LINK_FLAP, "L-client",
                       start_s=1.0, duration_s=3.0, value=0.9),)
        )
        injector = make_injector(plan, servers, transport, clock)
        injector.arm(loop)
        link = topology.link("L-client")
        observed = {}
        loop.at(2.0, lambda: observed.setdefault("during", link.congestion))
        loop.run()
        assert observed["during"] == pytest.approx(0.9)
        assert link.congestion == 0.0
        assert injector.stats.link_flaps == 1
        assert injector.stats.link_heals == 1

    def test_double_arm_rejected(self, servers, transport, clock, loop):
        injector = make_injector(FaultPlan(), servers, transport, clock)
        injector.arm(loop)
        with pytest.raises(SimulationError):
            injector.arm(loop)

    def test_unknown_crash_target_rejected(self, servers, transport, clock, loop):
        plan = FaultPlan(
            (FaultSpec(FaultKind.SERVER_CRASH, "server-zz"),)
        )
        injector = make_injector(plan, servers, transport, clock)
        with pytest.raises(SimulationError):
            injector.arm(loop)


def flap(link_id, start_s, duration_s, severity):
    return FaultSpec(FaultKind.LINK_FLAP, link_id, start_s, duration_s, severity)


def brownout(server_id, start_s, duration_s, severity):
    return FaultSpec(
        FaultKind.SERVER_BROWNOUT, server_id, start_s, duration_s, severity
    )


class TestCongestionWindows:
    """Brownouts and flaps as the adaptation runs' congestion episodes."""

    def test_applies_and_clears(self, servers, transport, topology, clock, loop):
        injector = make_injector(
            FaultPlan((flap("L-a", 5.0, 10.0, 0.8),)),
            servers, transport, clock,
        )
        injector.arm(loop)
        loop.run_until(6.0)
        assert topology.link("L-a").congestion == pytest.approx(0.8)
        loop.run_until(16.0)
        assert topology.link("L-a").congestion == 0.0
        assert injector.stats.link_flaps == 1
        assert injector.stats.link_heals == 1

    def test_server_episodes(self, servers, transport, clock, loop):
        injector = make_injector(
            FaultPlan((brownout("server-a", 1.0, 2.0, 0.6),)),
            servers, transport, clock,
        )
        injector.arm(loop)
        loop.run_until(1.5)
        assert servers["server-a"].degradation == pytest.approx(0.6)
        loop.run()
        assert servers["server-a"].degradation == 0.0
        assert injector.stats.brownouts == 1
        assert injector.stats.brownout_heals == 1

    def test_overlapping_episodes_compose_by_max(
        self, servers, transport, topology, clock, loop
    ):
        plan = FaultPlan(
            (flap("L-a", 0.0, 10.0, 0.5), flap("L-a", 2.0, 4.0, 0.9))
        )
        make_injector(plan, servers, transport, clock).arm(loop)
        loop.run_until(3.0)
        assert topology.link("L-a").congestion == pytest.approx(0.9)
        loop.run_until(7.0)
        # The inner window closed; the outer one is still open.
        assert topology.link("L-a").congestion == pytest.approx(0.5)
        loop.run()
        assert topology.link("L-a").congestion == 0.0

    def test_later_weaker_window_keeps_the_stronger_level(
        self, servers, transport, topology, clock, loop
    ):
        """[10, 30] s at 0.9 and [20, 40] s at 0.6 on one server and on
        one link: the later, weaker window must not lower the level, and
        the first heal must not clear the window still open."""
        plan = FaultPlan(
            (
                brownout("server-a", 10.0, 20.0, 0.9),
                brownout("server-a", 20.0, 20.0, 0.6),
                flap("L-a", 10.0, 20.0, 0.9),
                flap("L-a", 20.0, 20.0, 0.6),
            )
        )
        injector = make_injector(plan, servers, transport, clock)
        injector.arm(loop)
        server, link = servers["server-a"], topology.link("L-a")
        readings = []
        for t in (15.0, 25.0, 35.0, 45.0):
            loop.run_until(t)
            readings.append((server.degradation, link.congestion))
        assert readings == [(0.9, 0.9), (0.9, 0.9), (0.6, 0.6), (0.0, 0.0)]
        stats = injector.stats
        assert (stats.brownouts, stats.brownout_heals) == (2, 2)
        assert (stats.link_flaps, stats.link_heals) == (2, 2)

    def test_unknown_target_rejected(self, servers, transport, clock, loop):
        for spec, error in (
            (brownout("server-zz", 1.0, 2.0, 0.6), SimulationError),
            (flap("L-zz", 1.0, 2.0, 0.6), NotFoundError),
        ):
            injector = make_injector(
                FaultPlan((spec,)), servers, transport, clock
            )
            with pytest.raises(error):
                injector.arm(loop)


class TestInstallation:
    def test_install_sets_hooks(self, servers, transport, clock):
        injector = make_injector(FaultPlan(), servers, transport, clock)
        assert all(s.fault_hook is injector for s in servers.values())
        assert transport.fault_hook is injector

    def test_uninstall_clears_hooks(self, servers, transport, clock):
        injector = make_injector(FaultPlan(), servers, transport, clock)
        injector.uninstall()
        assert all(s.fault_hook is None for s in servers.values())
        assert transport.fault_hook is None
