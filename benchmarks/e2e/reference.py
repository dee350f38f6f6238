"""The reference kernel: how fast is this machine *right now*?

The benchmark's hosts are shared.  On the builder's two-vCPU guest the
CPU time of an unchanged request loop drifts by 15-40% over seconds
and by 20% between quarter-hours, with no page faults, no preemption
and an idle guest — a busy SMT sibling or host contention that the
guest cannot see.  No estimator over a 10 s window (median, low
quantile or minimum of segments of 10 to 1000 requests) spreads less
than a tenth across runs, and a second set of runs can sit a fifth
below the first.

So every measured window is bracketed by this kernel, and every timed
metric is reported as *wall seconds scaled to the reference speed*::

    scaled = elapsed * REFERENCE_NOMINAL_S / (kernel time around the window)

The kernel is plain-Python work of the kind the negotiation stack does
(small frozen dataclasses, enum identity, f-strings, sha256 of a repr,
a heap-driven generator, a dict ledger with refusals by exception,
sorting by tuple keys), and it imports nothing from ``repro``: a change
to the program under test cannot move it.  Over a 100 s probe its
time tracks the request loop's with correlation 0.94-0.98 at 1-10 s
granularity and cuts the run-to-run spread of 10 s windows from 0.23
to 0.08.  A simple arithmetic spin loop does not track (0.5-0.7).

On a machine running at the nominal speed the scaled figures *are*
wall clock; ``bench.speed_index`` reports how far the machine was from
it and ``bench.raw_verdicts_per_s`` the unscaled throughput.

FROZEN: this file defines the unit of every timed metric.  Editing the
kernel or the constant invalidates every stored result.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

__all__ = ["REFERENCE_NOMINAL_S", "reference_kernel", "speed_index"]

REFERENCE_NOMINAL_S = 0.004
"""One kernel call at the nominal speed (about the builder machine's
median; its quiet-state minimum is 0.0030)."""

SAMPLES = 10


class _Colour(enum.Enum):
    A = "a"
    B = "b"
    C = "c"


_COLOURS = (_Colour.A, _Colour.B, _Colour.C)


@dataclass(frozen=True)
class _Item:
    key: str
    rank: int
    weight: float
    colour: _Colour

    def score(self, bias: float) -> float:
        return self.weight * 2.0 - bias * (self.rank / 100.0)


class _Ledger:
    def __init__(self) -> None:
        self.rows: "dict[str, tuple[_Item, str]]" = {}
        self.sequence = 0

    def admit(self, item: _Item, holder: str) -> str:
        if len(self.rows) > 64:
            raise KeyError(holder)
        self.sequence += 1
        row_id = f"{holder}/row-{self.sequence}"
        self.rows[row_id] = (item, holder)
        return row_id

    def release(self, row_id: str) -> None:
        self.rows.pop(row_id, None)


def _best_first(items: "list[_Item]", bias: float) -> "Iterator[_Item]":
    heap = [(-item.score(bias), item.rank, item) for item in items]
    heapq.heapify(heap)
    seen: "set[str]" = set()
    while heap:
        _, _, item = heapq.heappop(heap)
        if item.key in seen:
            continue
        seen.add(item.key)
        yield item


def reference_kernel(rounds: int = 40) -> float:
    ledger = _Ledger()
    total = 0.0
    for round_ in range(rounds):
        items = [
            _Item(
                f"k{(i * 7 + round_) % 53}", i, (i * 37 % 101) / 7.0,
                _COLOURS[i % 3],
            )
            for i in range(48)
        ]
        fingerprint = hashlib.sha256(
            repr(tuple(items[:6])).encode("utf-8")
        ).hexdigest()[:16]
        held = []
        for item in _best_first(items, 0.5):
            try:
                held.append(ledger.admit(item, f"s-{round_}"))
            except KeyError:
                break
            if item.colour is _Colour.C and len(held) > 12:
                break
        total += sum(ledger.rows[row][0].weight for row in held)
        for row in sorted(
            held, key=lambda row: (ledger.rows[row][0].rank, row)
        ):
            ledger.release(row)
        total += len(fingerprint)
    return total


def kernel_samples(count: int = SAMPLES) -> "list[float]":
    samples = []
    for _ in range(count):
        started = perf_counter()
        reference_kernel()
        samples.append(perf_counter() - started)
    return samples


def speed_index(samples: "list[float]") -> float:
    """Median kernel time over the nominal: above 1 on a slow machine."""
    return statistics.median(samples) / REFERENCE_NOMINAL_S
