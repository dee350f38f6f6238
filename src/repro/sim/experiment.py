"""Workload execution: drive requests through a negotiator.

The heart of experiments E7–E9/E11/E12: schedule arrivals on the
scenario's event loop, negotiate each request, hold resources for the
playout duration (sessions), and collect :class:`RunStats`.

Confirmation behaviour is configurable: by default every reserved offer
is confirmed instantly; ``confirm_delay_s`` + per-profile
``choicePeriod`` let E12 study confirmation timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.negotiation import NegotiationResult
from ..core.status import NegotiationStatus
from ..session.playout import PlayoutSession
from ..session.runtime import SessionRuntime
from ..util.errors import ConfirmationTimeout, SimulationError
from .baselines import Negotiator
from .metrics import RunStats
from .scenario import Scenario
from .workload import Request

__all__ = ["RunConfig", "run_workload"]


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Execution knobs for one workload run."""

    adaptation_enabled: bool = True
    confirm_delay_s: float = 0.0
    user_accepts: "Callable[[NegotiationResult], bool] | None" = None
    session_duration_s: "float | None" = None


def run_workload(
    scenario: Scenario,
    negotiator: Negotiator,
    requests: Sequence[Request],
    *,
    config: RunConfig | None = None,
    injector=None,
) -> RunStats:
    """Run ``requests`` against ``scenario`` using ``negotiator``.

    The scenario is reset (reservations, congestion) before the run, but
    the event loop's clock keeps advancing monotonically across runs on
    the same scenario — build a fresh scenario per run for clean time
    axes.
    """
    config = config or RunConfig()
    scenario.reset_resources()
    stats = RunStats()
    loop = scenario.loop
    runtime = SessionRuntime(
        scenario.manager,
        loop,
        adaptation_enabled=config.adaptation_enabled,
    )
    if injector is not None:
        injector.arm(loop)

    base_t = loop.now  # arrivals are relative to the run start

    def sample_utilization() -> None:
        now = loop.now
        stats.network_utilization.sample(
            now - base_t,
            scenario.transport.topology.total_reserved_bps(),
        )
        stats.server_utilization.sample(
            now - base_t,
            sum(s.aggregate_rate_bps for s in scenario.servers.values()),
        )

    def handle(request: Request) -> None:
        stats.offered += 1
        client = scenario.clients.get(request.client_id)
        if client is None:
            raise SimulationError(f"unknown client {request.client_id!r}")
        result = negotiator.negotiate(
            request.document_id, request.profile, client
        )
        stats.statuses.add(result.status)
        stats.attempts_total += result.attempts
        if not result.status.reserves_resources:
            return
        accepts = (
            config.user_accepts(result)
            if config.user_accepts is not None
            else True
        )
        if not accepts:
            result.commitment.reject(loop.now)  # type: ignore[union-attr]
            return

        def confirm_and_play() -> None:
            try:
                session = runtime.start_session(
                    result,
                    request.profile,
                    client,
                    duration_s=config.session_duration_s,
                )
            except ConfirmationTimeout:
                return  # choicePeriod elapsed; reservation already gone
            stats.revenue = stats.revenue + result.chosen.offer.cost  # type: ignore[union-attr]
            sample_utilization()

        if config.confirm_delay_s > 0:
            loop.after(config.confirm_delay_s, confirm_and_play)
        else:
            confirm_and_play()
        sample_utilization()

    for request in requests:
        loop.at(base_t + request.arrival_s, lambda r=request: handle(r))

    loop.run()
    sample_utilization()
    for session in runtime.finished:
        stats.record_session(session)
    return stats
