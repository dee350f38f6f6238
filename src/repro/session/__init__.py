"""Playout sessions: event loop, monitoring, adaptation loop."""

from .datapath import DataPathReport, StreamDemand, simulate_rounds
from .engine import EventLoop
from .monitor import QoSMonitor, Violation
from .playout import PlayoutSession, SessionRecord, SessionState
from .runtime import SessionRuntime
from .supervisor import SessionSupervisor, SupervisedEntry, SupervisorStats

__all__ = [
    "DataPathReport",
    "StreamDemand",
    "simulate_rounds",
    "EventLoop",
    "QoSMonitor",
    "Violation",
    "PlayoutSession",
    "SessionRecord",
    "SessionState",
    "SessionRuntime",
    "SessionSupervisor",
    "SupervisedEntry",
    "SupervisorStats",
]
