"""Seeded random-number helpers.

All stochastic components of the simulation layer (arrival processes,
congestion injection, workload mixes) take an explicit generator, never a
module-level one, so every experiment in ``benchmarks/`` is reproducible
from its recorded seed.  These helpers centralise generator construction
and deterministic sub-stream derivation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import ValidationError

__all__ = ["RngLike", "make_rng", "derive_rng", "spawn_rngs"]

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    ``seed`` may be ``None`` (OS entropy — only for interactive use), an
    integer, or an existing generator (returned unchanged so call sites
    can accept either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(rng: np.random.Generator, *keys: Union[int, str]) -> np.random.Generator:
    """Derive a named, independent sub-stream of ``rng``.

    Deterministic: the same parent state and keys always yield the same
    child stream.  Used to give each simulated component (each server,
    each link, the arrival process, ...) its own generator so adding a
    component never perturbs the draws of another.
    """
    material = []
    for key in keys:
        if isinstance(key, str):
            material.extend(key.encode("utf-8"))
        else:
            material.append(int(key) & 0xFFFFFFFF)
    base = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
    child = np.random.SeedSequence(
        entropy=getattr(base, "entropy", 0), spawn_key=tuple(material)
    )
    return np.random.default_rng(child)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed."""
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    seq = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
