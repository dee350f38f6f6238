"""Continuous-media file server substrate (stands in for the UBC CMFS)."""

from .admission import AdmissionController, AdmissionDecision
from .disk import DiskModel, RoundFeasibility
from .scheduler import RoundPlan, RoundScheduler, SchedulingPolicy, StreamState
from .server import MediaServer, StreamReservation
from .storage import PlacementReport, validate_placement

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DiskModel",
    "RoundFeasibility",
    "RoundPlan",
    "RoundScheduler",
    "SchedulingPolicy",
    "StreamState",
    "MediaServer",
    "StreamReservation",
    "PlacementReport",
    "validate_placement",
]
