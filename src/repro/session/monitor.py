"""QoS monitoring: detecting violations during the active phase.

The paper's adaptation is triggered when "the network or/and the server
machine become congested thus leading to lower presentation quality".
:class:`QoSMonitor` polls the transport system and the server fleet,
maps violated reservation holders back to playout sessions, and reports
:class:`Violation` records.  How long a degraded stream can play
before the presentation visibly stalls is the synchronization
component's business (§6); :mod:`repro.session.datapath` models it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..cmfs.server import MediaServer
from ..network.transport import TransportSystem
from .playout import PlayoutSession

__all__ = ["Violation", "QoSMonitor"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected degradation touching one session."""

    session_id: str
    source: str       # "network" or "server"
    component: str    # link id or server id
    detected_at: float


class QoSMonitor:
    """Maps infrastructure-level violations to sessions."""

    def __init__(
        self,
        transport: TransportSystem,
        servers: Mapping[str, MediaServer],
    ) -> None:
        self._transport = transport
        self._servers = dict(servers)

    def scan(
        self, sessions: Iterable[PlayoutSession], now: float
    ) -> list[Violation]:
        """One monitoring sweep: which active sessions are being hurt?"""
        by_holder = {
            session.holder: session
            for session in sessions
            if session.result.commitment is not None
        }
        violations: list[Violation] = []
        seen: set[tuple[str, str]] = set()

        # Network pass: link reservations carry the *flow id* as holder,
        # and flows do not know their session.  Sessions reference their
        # commitments' flows directly, so invert that mapping.
        flow_to_session: dict[str, PlayoutSession] = {}
        for session in by_holder.values():
            bundle = session.result.commitment.bundle  # type: ignore[union-attr]
            for flow in bundle.flows:
                flow_to_session[flow.flow_id] = session
        for flow in self._transport.violated_flows():
            session = flow_to_session.get(flow.flow_id)
            if session is None:
                continue
            worst_link = max(
                flow.route.links, key=lambda l: l.congestion, default=None
            )
            component = worst_link.link_id if worst_link is not None else "?"
            key = (session.session_id, f"net:{component}")
            if key not in seen:
                seen.add(key)
                violations.append(
                    Violation(
                        session_id=session.session_id,
                        source="network",
                        component=component,
                        detected_at=now,
                    )
                )

        # Server pass: stream reservations carry the session holder tag.
        # Sorted: a set of strings iterates in hash order, which would
        # make the order of adaptations depend on PYTHONHASHSEED.
        for server in self._servers.values():
            for holder in sorted(server.violated_holders()):
                session = by_holder.get(holder)
                if session is None:
                    continue
                key = (session.session_id, f"srv:{server.server_id}")
                if key not in seen:
                    seen.add(key)
                    violations.append(
                        Violation(
                            session_id=session.session_id,
                            source="server",
                            component=server.server_id,
                            detected_at=now,
                        )
                    )
        return violations
