"""Concurrent negotiation service: seeded cooperative concurrency.

Thousands of in-flight §4 negotiations against one shared deployment,
with interleavings reproducible byte-for-byte from a scheduler seed.
See DESIGN.md §13 for the concurrency model (determinism contract,
yield-point map, deadlock-avoidance ordering).
"""

from .negotiator import (
    NegotiationService,
    ServicePolicy,
    ServiceRequest,
    ServiceStats,
)
from .scheduler import (
    CooperativeScheduler,
    Op,
    SchedulerStats,
    Sleep,
    Switch,
    Task,
)

__all__ = [
    "NegotiationService",
    "ServicePolicy",
    "ServiceRequest",
    "ServiceStats",
    "CooperativeScheduler",
    "Op",
    "SchedulerStats",
    "Sleep",
    "Switch",
    "Task",
]
