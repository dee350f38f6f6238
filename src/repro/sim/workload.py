"""Workload generation: synthetic users for the system-level experiments.

Requests arrive as a Poisson process; each request picks a document
(Zipf-ish popularity — news consumption is head-heavy), a client, and a
user profile from a weighted mix.  Session holding times equal document
duration (presentational playout).  Everything is driven by an explicit
seeded generator so sweeps are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.profile_manager import standard_profiles
from ..core.profiles import UserProfile
from ..util.errors import SimulationError
from ..util.rng import RngLike, make_rng
from ..util.validation import check_positive

__all__ = ["Request", "WorkloadSpec", "generate_requests", "zipf_weights"]


@dataclass(frozen=True, slots=True)
class Request:
    """One user request: who asks for what, when."""

    arrival_s: float
    client_id: str
    document_id: str
    profile: UserProfile


def zipf_weights(n: int, skew: float = 0.8) -> np.ndarray:
    """Normalised Zipf(``skew``) popularity over ``n`` items."""
    if n < 1:
        raise SimulationError("need at least one item")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-skew)
    return weights / weights.sum()


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of one synthetic workload."""

    arrival_rate_per_s: float = 0.05
    horizon_s: float = 3_600.0
    document_skew: float = 0.8
    profile_mix: "tuple[tuple[str, float], ...]" = (
        ("premium", 0.25),
        ("balanced", 0.5),
        ("economy", 0.25),
    )

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate_per_s, "arrival_rate_per_s")
        check_positive(self.horizon_s, "horizon_s")
        if not self.profile_mix:
            raise SimulationError("profile mix must not be empty")
        total = sum(weight for _, weight in self.profile_mix)
        if total <= 0:
            raise SimulationError("profile mix weights must sum positive")


def generate_requests(
    spec: WorkloadSpec,
    document_ids: Sequence[str],
    client_ids: Sequence[str],
    *,
    rng: RngLike = None,
    profiles: "Sequence[UserProfile] | None" = None,
) -> list[Request]:
    """Draw the full request trace for one run."""
    if not document_ids:
        raise SimulationError("no documents to request")
    if not client_ids:
        raise SimulationError("no clients to request from")
    rng = make_rng(rng)

    by_name = {p.name: p for p in (profiles or standard_profiles())}
    mix_profiles = []
    mix_weights = []
    for name, weight in spec.profile_mix:
        if name not in by_name:
            raise SimulationError(f"unknown profile {name!r} in mix")
        mix_profiles.append(by_name[name])
        mix_weights.append(float(weight))
    mix = np.array(mix_weights)
    mix = mix / mix.sum()

    doc_weights = zipf_weights(len(document_ids), spec.document_skew)

    requests: list[Request] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / spec.arrival_rate_per_s))
        if t >= spec.horizon_s:
            break
        requests.append(
            Request(
                arrival_s=t,
                client_id=str(client_ids[int(rng.integers(len(client_ids)))]),
                document_id=str(
                    document_ids[int(rng.choice(len(document_ids), p=doc_weights))]
                ),
                profile=mix_profiles[int(rng.choice(len(mix_profiles), p=mix))],
            )
        )
    return requests
