"""Seeded random-number helpers.

All stochastic components of the simulation layer (arrival processes,
congestion injection, workload mixes) take an explicit generator, never a
module-level one, so every experiment in ``benchmarks/`` is reproducible
from its recorded seed.  :func:`make_rng` centralises generator
construction.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RngLike", "make_rng"]

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
