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

**Shared orders.**  A cached space serves many requests, and most of
them read the same score columns, so each :class:`OfferSpace` keeps
two memos.  ``columns_memo`` holds the per-axis QoS-importance and
level columns ``_axis_columns`` scored, keyed by exactly what it reads:
the importance tables (``ImportanceProfile.tables_key``), the desired
and worst QoS bound of each medium and the server weights
(``UserPreferences.weights_key``) — not the cost ceiling, the time
bounds or the name, so requests that differ only in those score the
space once.  Both keys hold floats as their bits, so a ``-0.0`` entry
never finds a ``0.0`` entry's columns; the tables they are built from
are read-only, so they never go stale.  ``order_memo`` holds the orders
requested over the space.  Its key is every value the search reads
beyond the space itself: the policy, the clamped budget, the cost per
dollar and the two columns, compared by value.  The budget enters only
through which offers are affordable, so it is clamped to
``[cheapest − 1, dearest]`` (``OfferSpace.cost_span``): a ceiling above
the dearest offer selects the same order as one at it.  ``-0.0`` and
``0.0`` are one order key, which is exact because every OIF sum starts
at ``+0.0``.  A request gets a cursor over the memo's
:class:`SharedOrder`: it replays the offers an earlier request already
pulled and extends the shared list from the one frontier search only
past them.  The bounds are module constants: a space keeps
:data:`ORDER_MEMO_SIZE` column sets and as many orders, the oldest
evicted, and an order shares its first :data:`SHARED_PREFIX` offers;
past them the first cursor takes over the shared search and any later
one continues on a private search that skips the shared prefix.

Step 6 shows the user the offer step 5 got, and that user offer is a
pure function of the system offer and the requested time bounds.
Since every request over one order is handed the same offers, the
space keeps a third memo, ``user_offers``, keyed by ``(offer id,
desired time profile)`` and bounded and evicted like the other two:
:func:`user_offer_for` answers from it and fills it on a miss with
:func:`~repro.core.offers.derive_user_offer`, which stays the
definition.  An offer id names one product index of its space, so the
key selects one system offer.  The memos live and die with their
space: a document mutation gives a new space, and ``variant_filter``
requests build private ones.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from ..documents.media import Medium
from .classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    _axis_columns,
)
from .enumeration import OfferSpace
from .importance import ImportanceProfile
from .offers import SystemOffer, derive_user_offer
from .preferences import UserPreferences
from .profiles import MMProfile, TimeProfile, UserProfile
from .status import StaticNegotiationStatus

__all__ = ["SharedOrder", "shared_order", "stream_classified", "user_offer_for"]

ORDER_MEMO_SIZE = 8
"""Classified orders, score column sets and user offers one offer space
keeps, of each; the oldest is evicted."""

SHARED_PREFIX = 256
"""Offers of one order kept for every cursor to replay."""


class _AxisTables(NamedTuple):
    """Per-axis score tables, indexed ``[axis][original variant index]``,
    and the clamped budget: everything one order's search reads."""

    qimp: "tuple[tuple[float, ...], ...]"
    cents: "Sequence[Sequence[int]]"
    levels: "tuple[tuple[int, ...], ...]"
    radices: "Sequence[int]"
    cost_per_dollar: float
    copyright_cents: int
    budget: int


_bounds = attrgetter(*(medium.value for medium in Medium))
"""An MM profile's QoS bound of every medium, in enum order."""


def _columns(
    space: OfferSpace, profile: UserProfile, importance: ImportanceProfile
) -> "tuple[tuple[tuple[float, ...], ...], tuple[tuple[int, ...], ...]]":
    """The request's QoS-importance and level columns, scored by
    ``_axis_columns`` once per distinct (importance tables, QoS bounds,
    server weights) on the space and kept in ``space.columns_memo``."""
    preferences = profile.preferences
    key = (
        importance.tables_key,
        _bounds(profile.desired),
        _bounds(profile.worst),
        preferences.weights_key
        if isinstance(preferences, UserPreferences) else None,
    )
    memo = space.columns_memo
    columns = memo.get(key)
    if columns is None:
        qimp, _, levels = _axis_columns(space, profile, importance)
        if len(memo) >= ORDER_MEMO_SIZE:
            del memo[next(iter(memo))]
        columns = memo[key] = (
            tuple(map(tuple, qimp)), tuple(map(tuple, levels))
        )
    return columns


def _order_key(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    policy: ClassificationPolicy,
) -> tuple:
    """The memo key of the order one request selects: ``(policy,
    budget, cost per dollar, QoS-importance columns, level columns)``,
    the budget clamped to ``[cheapest − 1, dearest]``, which decides
    every affordability test the search makes."""
    qimp, levels = _columns(space, profile, importance)
    cheapest, dearest = space.cost_span
    budget = min(max(profile.max_cost.cents, cheapest - 1), dearest)
    return policy, budget, importance.cost_per_dollar, qimp, levels


def _axis_tables(space: OfferSpace, key: tuple) -> _AxisTables:
    """The tables the search of the order under ``key`` reads."""
    _, budget, cpd, qimp, levels = key
    return _AxisTables(
        qimp=qimp,
        cents=space.cents_axes,
        levels=levels,
        radices=space.radices,
        cost_per_dollar=cpd,
        copyright_cents=space.copyright_cents,
        budget=budget,
    )


def _contribution_orders(tables: _AxisTables) -> "list[list[int]]":
    """Each axis's variant order by descending contribution, original
    index ascending on ties (mirrors the stability of the lexsort)."""
    cpd = tables.cost_per_dollar
    orders: "list[list[int]]" = []
    for qimp_column, cents_column in zip(tables.qimp, tables.cents):
        contrib = [
            q - cpd * (c / 100.0) for q, c in zip(qimp_column, cents_column)
        ]
        orders.append(
            sorted(range(len(contrib)), key=lambda j: (-contrib[j], j))
        )
    return orders


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
    qimp, cents, levels, radices, cpd, total_cents, _ = tables
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


def _search(
    tables: _AxisTables, policy: ClassificationPolicy
) -> Iterator[tuple[int, int, float, bool]]:
    """Yield ``(flat_index, level, oif, affordable)`` for every offer,
    in exactly the order ``classify_space`` would return them."""
    full_orders = _contribution_orders(tables)
    budget = tables.budget
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
            cheapest = tables.copyright_cents + sum(map(min, costs))
            dearest = tables.copyright_cents + sum(map(max, costs))
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
                yield flat, level, oif, affordable


def _materialise(
    space: OfferSpace, found: "Iterator[tuple[int, int, float, bool]]"
) -> Iterator[ClassifiedOffer]:
    """The classified offers of a search's ``(flat, level, oif,
    affordable)`` rows, each materialised as it is pulled."""
    for flat, level, oif, affordable in found:
        yield ClassifiedOffer(
            offer=space.offer_at(flat),
            sns=StaticNegotiationStatus(level),
            oif=oif,
            affordable=affordable,
        )


class SharedOrder:
    """One memoised order: the offers pulled so far, at most
    :data:`SHARED_PREFIX` of them, and the search that extends them."""

    __slots__ = ("offers", "_space", "_tables", "_policy", "_source", "_end")

    def __init__(
        self,
        space: OfferSpace,
        tables: _AxisTables,
        policy: ClassificationPolicy,
    ) -> None:
        self.offers: "list[ClassifiedOffer]" = []
        self._space = space
        self._tables = tables
        self._policy = policy
        self._source: "Iterator[ClassifiedOffer] | None" = _materialise(
            space, _search(tables, policy)
        )
        self._end = min(space.offer_count, SHARED_PREFIX)

    def cursor(self) -> Iterator[ClassifiedOffer]:
        """The order from its first offer: the shared offers, extended
        from the shared search as this cursor reaches the end of them,
        then what lies past the shared list."""
        offers = self.offers
        at = 0
        while at < len(offers) or self._extend():
            yield offers[at]
            at += 1
        yield from self._beyond()

    def _extend(self) -> bool:
        """Append the search's next offer; False once the shared list
        is full."""
        offers = self.offers
        if len(offers) == self._end:
            return False
        assert self._source is not None
        offers.append(next(self._source))
        if len(offers) == self._space.offer_count:
            self._source = None
        return True

    def _beyond(self) -> Iterator[ClassifiedOffer]:
        """The offers past the full shared list, for one cursor: the
        shared search itself for the first to ask, a private search
        that skips the shared offers for any later one."""
        source, self._source = self._source, None
        if source is not None:
            return source
        shared = len(self.offers)
        if shared == self._space.offer_count:
            return iter(())
        rows = _search(self._tables, self._policy)
        return _materialise(self._space, itertools.islice(rows, shared, None))


def shared_order(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> SharedOrder:
    """The memoised order one request selects over a non-empty space,
    made on a miss."""
    key = _order_key(space, profile, importance, policy)
    memo = space.order_memo
    order: "SharedOrder | None" = memo.get(key)
    if order is None:
        if len(memo) >= ORDER_MEMO_SIZE:
            del memo[next(iter(memo))]
        order = memo[key] = SharedOrder(
            space, _axis_tables(space, key), policy
        )
    return order


def stream_classified(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> Iterator[ClassifiedOffer]:
    """Yield the offer space's classified offers lazily, best first, in
    exactly the order ``classify_space`` would return them.

    A cursor over the request's :func:`shared_order`: offers are
    materialised when the first cursor of their order pulls them, and
    replayed to every later one.
    """
    if space.is_empty:
        return iter(())
    return shared_order(space, profile, importance, policy=policy).cursor()


def user_offer_for(
    space: OfferSpace, offer: SystemOffer, time: TimeProfile
) -> MMProfile:
    """The user offer of one system offer of ``space`` under the
    requested ``time`` bounds: ``derive_user_offer(offer, time)``, made
    once per key and kept in ``space.user_offers``."""
    key = (offer.offer_id, time)
    memo = space.user_offers
    derived: "MMProfile | None" = memo.get(key)
    if derived is None:
        if len(memo) >= ORDER_MEMO_SIZE:
            del memo[next(iter(memo))]
        derived = memo[key] = derive_user_offer(offer, time)
    return derived
