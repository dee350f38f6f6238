"""Best-first streaming classification of the offer product space.

:func:`repro.core.classification.classify_space` sorts the *entire*
feasible product space before step 5 walks it, yet the commitment walk
typically touches only the first handful of offers.  Both
classification parameters are separable across monomedia axes — the
OIF is a sum of per-axis contributions minus the cost term, the SNS is
the max of per-axis levels — so the classified order can be produced
lazily with the classic k-largest-sums frontier search over per-axis
sorted contribution arrays, materialising only the offers actually
consumed.

**Exact order equivalence.**  The vectorized path orders by
``lexsort((index, -oif, sns))`` where ``oif`` is a float computed in a
fixed operation order.  To reproduce that order bit-for-bit the stream
*recomputes* each candidate's OIF with the exact same operation
sequence as the numpy broadcast (left-to-right sum of per-axis QoS
importances, then one cost subtraction on the exact integer cents
total) and uses ``(-oif, flat_index)`` as the heap key.  The per-axis
sorted contributions only steer *which* candidates enter the frontier;
the yield order is decided by the recomputed key.  A two-phase pop
(children are pushed before their parent is re-offered for yielding)
absorbs the one-ulp inversions that different float association orders
can introduce between a parent and its lattice children.

**Band laziness.**  The SNS is the max of the per-axis levels, so the
offers of SNS ≤ L (before any cost demotion) are exactly the
sub-product of the per-axis variants of level ≤ L.  Under the
SNS-primary policies each band L is produced by its own frontier
search over that sub-product — same per-axis tables, original flat
indices — yielding only the offers whose *final* level (after the
unaffordable 0→1 demotion and the COST_GATED →2 demotion) is L.  Within
a band the lexsort key is ``(-oif, index)``, which is the heap key, so
the concatenated bands are the lexsort order, and a band's first offer
costs what that band's sub-product search pops, not the catalogue.
Bands that provably hold no offer are skipped without a search.
``PURE_OIF`` has no bands: one search over the whole product.
"""

from __future__ import annotations

import heapq
from typing import Iterator, NamedTuple, Sequence

from .classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    _axis_columns,
)
from .enumeration import OfferSpace
from .importance import ImportanceProfile
from .profiles import UserProfile
from .status import StaticNegotiationStatus

__all__ = ["stream_classified"]


class _AxisTables(NamedTuple):
    """Per-axis score tables, indexed ``[axis][original variant index]``
    and built once per stream, shared by every band's search."""

    qimp: "list[list[float]]"
    cents: "Sequence[Sequence[int]]"
    levels: "list[list[int]]"
    radices: "Sequence[int]"
    cost_per_dollar: float
    copyright_cents: int


def _axis_tables(
    space: OfferSpace, profile: UserProfile, importance: ImportanceProfile
) -> "tuple[_AxisTables, list[list[int]]]":
    """The tables plus each axis's variant order by descending
    contribution, original index ascending on ties (mirrors the
    stability of the lexsort)."""
    qimp, cents, levels = _axis_columns(space, profile, importance)
    cpd = importance.cost_per_dollar
    tables = _AxisTables(
        qimp=qimp,
        cents=cents,
        levels=levels,
        radices=space.radices,
        cost_per_dollar=cpd,
        copyright_cents=space.copyright_cents,
    )
    orders: "list[list[int]]" = []
    for qimp_column, cents_column in zip(qimp, cents):
        contrib = [
            q - cpd * (c / 100.0) for q, c in zip(qimp_column, cents_column)
        ]
        orders.append(
            sorted(range(len(contrib)), key=lambda j: (-contrib[j], j))
        )
    return tables, orders


_Entry = tuple[float, int, int, int, bool, tuple[int, ...]]
"""A heap entry: ``(-oif, flat, cents, raw level, expanded, pos)``.  The
``(-oif, flat)`` prefix is unique per candidate, so comparisons never
reach the remaining fields."""


def _candidate(
    tables: _AxisTables, orders: "list[list[int]]", pos: "tuple[int, ...]"
) -> _Entry:
    """The not-yet-expanded heap entry of one frontier position.

    The OIF is computed with the numpy broadcast's operation order —
    left-to-right QoS sum, then a single cost subtraction on the exact
    cents total — so it is bit-identical to the vectorized value for
    the same offer.  The raw level is the max of the per-axis levels,
    before any cost demotion.
    """
    qimp, cents, levels, radices, cpd, total_cents = tables
    qos = 0.0
    flat = 0
    raw = 0
    for i, p in enumerate(pos):
        j = orders[i][p]
        qos = qos + qimp[i][j]
        total_cents += cents[i][j]
        flat += j * radices[i]
        if levels[i][j] > raw:
            raw = levels[i][j]
    oif = qos - cpd * (total_cents / 100.0)
    return -oif, flat, total_cents, raw, False, pos


def _oif_descending(
    tables: _AxisTables, orders: "list[list[int]]"
) -> Iterator[tuple[int, float, int, int]]:
    """Yield ``(flat_index, oif, total_cents, raw_level)`` over the
    product of ``orders`` in exact ``(-oif, flat_index)`` order.

    ``orders`` lists, per axis, the original variant indices taking
    part, by descending contribution.  Frontier search: the successor
    lattice guarantees that whenever a candidate is yielded, every
    candidate with a larger real-valued OIF has already been yielded,
    and the recomputed float key settles rounding ties the same way
    the vectorized lexsort does.
    """
    candidate = _candidate
    sizes = [len(order) for order in orders]
    axes = range(len(orders))
    start = (0,) * len(orders)
    heap = [candidate(tables, orders, start)]
    seen = {start}
    while heap:
        entry = heapq.heappop(heap)
        neg_oif, flat, total, raw, expanded, pos = entry
        if expanded:
            yield flat, -neg_oif, total, raw
            continue
        # Two-phase pop: push the lattice children first, then re-offer
        # this node; it is only yielded once nothing in the frontier —
        # children included — beats its recomputed key.
        for i in axes:
            if pos[i] + 1 < sizes[i]:
                child = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
                if child not in seen:
                    seen.add(child)
                    heapq.heappush(heap, candidate(tables, orders, child))
        heapq.heappush(heap, entry[:4] + (True, pos))


def stream_classified(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> Iterator[ClassifiedOffer]:
    """Yield the offer space's classified offers lazily, best first, in
    exactly the order ``classify_space`` would return them.

    Offers are materialised one at a time as they are yielded; nothing
    is buffered beyond the running band's frontier.
    """
    if space.is_empty:
        return
    tables, full_orders = _axis_tables(space, profile, importance)
    budget = profile.max_cost.cents
    cost_gated = policy is ClassificationPolicy.COST_GATED
    pure_oif = policy is ClassificationPolicy.PURE_OIF

    def final_level(raw: int, affordable: bool) -> int:
        """classify_space's two demotions: DESIRABLE additionally
        requires the cost bound, COST_GATED sends every unaffordable
        offer to CONSTRAINT."""
        if affordable:
            return raw
        return 2 if cost_gated else max(raw, 1)

    # Raw levels some offer attains exactly: the level's sub-product is
    # non-empty and grew past the previous level's.
    attained: list[int] = []
    previous: "list[list[int]] | None" = None
    for band in (2,) if pure_oif else (0, 1, 2):
        orders = [
            [j for j in order if levels[j] <= band]
            for order, levels in zip(full_orders, tables.levels)
        ]
        grew, previous = orders != previous, orders
        if not all(orders):
            continue
        if grew:
            attained.append(band)
        if not pure_oif:
            # O(axes) cost bounds of the sub-product say which
            # affordability outcomes exist in it; a band that no
            # (attained raw level, outcome) pair ends in is empty and
            # never searched.
            costs = [
                [row[j] for j in order]
                for row, order in zip(tables.cents, orders)
            ]
            cheapest = space.copyright_cents + sum(map(min, costs))
            dearest = space.copyright_cents + sum(map(max, costs))
            outcomes = []
            if cheapest <= budget:
                outcomes.append(True)
            if dearest > budget:
                outcomes.append(False)
            if not any(
                final_level(raw, affordable) == band
                for raw in attained
                for affordable in outcomes
            ):
                continue
        for flat, oif, total_cents, raw in _oif_descending(tables, orders):
            affordable = total_cents <= budget
            level = final_level(raw, affordable)
            if pure_oif or level == band:
                yield ClassifiedOffer(
                    offer=space.offer_at(flat),
                    sns=StaticNegotiationStatus(level),
                    oif=oif,
                    affordable=affordable,
                )
