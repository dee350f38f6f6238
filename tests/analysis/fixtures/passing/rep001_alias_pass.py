"""REP001 fixture (clean): aliases and from-imports of the same
modules, used only for what does not read a clock or a global RNG;
an unimported name that shadows a forbidden one is not resolved."""

import datetime as dt
from datetime import timedelta

import numpy as xp
from numpy import random as npr
from numpy.random import default_rng


def sleep(seconds: float) -> float:
    return seconds


def seeded(seed: int) -> tuple:
    one, two = xp.random.default_rng(seed), npr.default_rng(seed)
    return one, two, default_rng(seed), sleep(1.0)


def spans() -> tuple:
    return dt.date(1996, 8, 6), timedelta(seconds=1)
