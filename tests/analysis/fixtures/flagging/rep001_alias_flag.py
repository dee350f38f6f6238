"""REP001 fixture: clocks and RNGs reached through an alias or a
from-import.  Each call resolves through the file's imports to a
forbidden absolute name."""

import datetime as dt
import time as clock
from time import perf_counter, sleep
from time import time as wall_time

import numpy as xp
from numpy import random as npr
from numpy.random import rand


def stopwatch() -> float:
    started = clock.perf_counter()
    clock.sleep(1)
    sleep(1)
    return perf_counter() - started + wall_time()


def stamp() -> object:
    return dt.datetime.now()


def draws() -> tuple:
    return xp.random.rand(3), rand(3), npr.rand(3)
