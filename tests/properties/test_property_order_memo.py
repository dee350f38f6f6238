"""The order memo ≡ a fresh stream, whatever the interleaving.

``stream_classified`` hands each request a cursor over an order kept on
the offer space under a key of everything the search reads beyond the
space.  Cursors over one space are opened and pulled in any
interleaving, from a small pool of requests that differ from one
another in one key component at a time (bounds, budget, server weights,
importance table, policy), so keys repeat and near-misses abound.
Every cursor must yield exactly what a memo-less stream over the same
space yields for its own inputs, and what ``classify_space`` returns:
``(offer id, SNS, OIF bits, affordable)``, ties and all.  Budgets sit
at cheapest − 1, cheapest, midway, dearest and dearest + 1, so the
clamp is exercised at both edges; two importance tables yield ``-0.0``
and ``0.0`` columns that share one key.  The memo is driven past its
entry bound, and the shared prefix is patched down so that cursors
walk past it.  The score columns each order is built from are
memoised too, under the importance tables, the QoS bounds and the
server weights; they must equal a fresh ``_axis_columns`` bit for bit.
"""

import copy
import math
import struct
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stream
from repro.core.classification import (
    ClassificationPolicy,
    _axis_columns,
    classify_space,
)
from repro.core.importance import (
    ImportanceProfile,
    ScaleImportance,
    default_importance,
)
from repro.core.stream import stream_classified
from repro.documents.media import AudioGrade, ColorMode, Language

from .strategies import (
    GRID_FLAVOURS,
    GRID_RESOLUTION,
    grid_profile,
    grid_space,
    offer_cost_bounds,
    server_weights,
    weighted,
)

BOUNDS = (
    (GRID_FLAVOURS[0], GRID_FLAVOURS[4]),
    (GRID_FLAVOURS[1], GRID_FLAVOURS[4]),
    (GRID_FLAVOURS[1], GRID_FLAVOURS[2]),
)
BUDGETS = ("cheapest-1", "cheapest", "mid", "dearest", "dearest+1")
WEIGHTS = (None, {"server-a": 0.5}, {"server-b": -0.0})


def importance_tables():
    """Two tables with equal QoS columns and different cost terms, and
    two whose video columns are all ``0.0`` and all ``-0.0``."""
    base = default_importance()
    return (
        base,
        base.with_cost_per_dollar(2.0),
        base.with_media_weight("video", 0.0).with_cost_per_dollar(0.0),
        base.with_media_weight("video", -0.0).with_cost_per_dollar(-0.0),
        base.with_media_weight("video", -0.0),
    )


IMPORTANCE = importance_tables()
POLICIES = tuple(ClassificationPolicy)
CHOICES = (BOUNDS, BUDGETS, WEIGHTS, IMPORTANCE, POLICIES)


def bits(value):
    return struct.pack("<d", value)


def row(classified):
    return (
        classified.offer.offer_id,
        int(classified.sns),
        bits(classified.oif),
        classified.affordable,
    )


def inputs(space, spec):
    """``(profile, importance, policy)`` of one request spec."""
    (desired, worst), budget, weights, importance, policy = spec
    cheapest, dearest = offer_cost_bounds(space)
    cents = {
        "cheapest-1": cheapest - 1,
        "cheapest": cheapest,
        "mid": (cheapest + dearest) // 2,
        "dearest": dearest,
        "dearest+1": dearest + 1,
    }[budget]
    profile = weighted(grid_profile(desired, worst, cents), weights)
    return profile, importance, policy


def fresh_rows(space, profile, importance, policy):
    """A memo-less stream: the same space with empty memos."""
    clone = copy.copy(space)
    clone.columns_memo = {}
    clone.order_memo = {}
    return [
        row(c)
        for c in stream_classified(clone, profile, importance, policy=policy)
    ]


@st.composite
def request_pools(draw):
    """A base request and up to eleven neighbours, each differing from
    the base in one component."""
    base = [draw(st.sampled_from(choices)) for choices in CHOICES]
    pool = [tuple(base)]
    for _ in range(draw(st.integers(min_value=1, max_value=11))):
        spec = list(base)
        component = draw(st.integers(min_value=0, max_value=len(CHOICES) - 1))
        spec[component] = draw(st.sampled_from(CHOICES[component]))
        pool.append(tuple(spec))
    return pool


spaces = st.lists(
    st.lists(st.sampled_from(GRID_FLAVOURS), min_size=1, max_size=4),
    min_size=1,
    max_size=3,
).map(grid_space)

operations = st.lists(
    st.tuples(
        st.booleans(),  # open a cursor (True) or pull from one (False)
        st.integers(min_value=0, max_value=11),  # pool entry / cursor
        st.integers(min_value=1, max_value=5),  # offers to pull
    ),
    min_size=1,
    max_size=30,
)


def drive(space, pool, ops):
    """Run ``ops`` over ``space``; return each cursor's request, the
    rows it yielded and whether it ran dry."""
    cursors = []
    for opens, index, pulls in ops:
        if opens or not cursors:
            request = inputs(space, pool[index % len(pool)])
            profile, importance, policy = request
            cursor = stream_classified(
                space, profile, importance, policy=policy
            )
            cursors.append([request, cursor, [], False])
        else:
            entry = cursors[index % len(cursors)]
            for _ in range(pulls):
                item = next(entry[1], None)
                if item is None:
                    entry[3] = True
                    break
                entry[2].append(row(item))
        assert len(space.order_memo) <= stream.ORDER_MEMO_SIZE
    return [(request, rows, dry) for request, _, rows, dry in cursors]


def assert_cursors_exact(space, driven):
    for (profile, importance, policy), rows, dry in driven:
        fresh = fresh_rows(space, profile, importance, policy)
        full = [
            row(c)
            for c in classify_space(space, profile, importance, policy=policy)
        ]
        assert fresh == full
        assert rows == fresh[: len(rows)]
        if dry:
            assert len(rows) == space.offer_count


class TestMemoEqualsFreshStream:
    @given(spaces, request_pools(), operations)
    @settings(max_examples=200, deadline=None)
    def test_interleaved_cursors(self, space, pool, ops):
        assert_cursors_exact(space, drive(space, pool, ops))

    @given(
        spaces,
        request_pools(),
        operations,
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_cursors_past_the_shared_prefix(self, space, pool, ops, cap):
        """With the shared prefix patched down to ``cap`` offers, the
        first cursor past it takes over the shared search and later
        ones search privately; all stay exact."""
        with mock.patch.object(stream, "SHARED_PREFIX", cap):
            driven = drive(space, pool, ops)
        for order in space.order_memo.values():
            assert len(order.offers) <= cap
        assert_cursors_exact(space, driven)


def streamed(space, spec):
    profile, importance, policy = inputs(space, spec)
    return [
        row(c)
        for c in stream_classified(space, profile, importance, policy=policy)
    ]


class TestNearMisses:
    """Two requests one key component apart, on a space where that
    component moves the order: each gets its own order."""

    BASE = (BOUNDS[2], "mid", None, IMPORTANCE[0], POLICIES[0])

    @pytest.mark.parametrize(
        "component, base_value, value",
        [
            (0, BOUNDS[2], BOUNDS[0]),
            (1, "mid", "cheapest"),
            (1, "cheapest-1", "cheapest"),
            (2, None, WEIGHTS[1]),
            (3, IMPORTANCE[0], IMPORTANCE[1]),
            (4, POLICIES[0], POLICIES[1]),
            (4, POLICIES[0], POLICIES[2]),
        ],
        ids=[
            "levels", "budget", "clamp-edge", "weights", "cost-per-dollar",
            "pure-oif", "cost-gated",
        ],
    )
    def test_one_component_apart(self, component, base_value, value):
        space = grid_space([GRID_FLAVOURS[:4], GRID_FLAVOURS[1:]])
        first, second = list(self.BASE), list(self.BASE)
        first[component], second[component] = base_value, value
        expected = [
            fresh_rows(space, *inputs(space, spec)) for spec in (first, second)
        ]
        assert expected[0] != expected[1]
        assert [streamed(space, spec) for spec in (first, second)] == expected
        assert len(space.order_memo) == 2


class TestBounds:
    def _space(self):
        return grid_space([GRID_FLAVOURS[:3], GRID_FLAVOURS[1:]])

    def test_the_memo_keeps_the_newest_orders(self):
        """Twelve distinct keys: eight orders stay, the four oldest are
        evicted, and a re-request of an evicted one is exact."""
        space = self._space()
        specs = [
            (bounds, budget, None, importance, POLICIES[0])
            for bounds in BOUNDS
            for budget in ("cheapest-1", "mid")
            for importance in IMPORTANCE[:2]
        ]
        assert len(specs) == 12
        for spec in specs:
            profile, importance, policy = inputs(space, spec)
            next(stream_classified(space, profile, importance, policy=policy))
        assert len(space.order_memo) == stream.ORDER_MEMO_SIZE
        assert streamed(space, specs[0]) == fresh_rows(
            space, *inputs(space, specs[0])
        )
        assert len(space.order_memo) == stream.ORDER_MEMO_SIZE

    def test_negative_zero_columns_share_one_order(self):
        """``-0.0`` and ``0.0`` columns and cost terms are one key, and
        each request's rows equal its own fresh stream bit for bit."""
        space = self._space()
        specs = [
            (BOUNDS[0], "mid", None, importance, POLICIES[0])
            for importance in IMPORTANCE[2:4]
        ]
        signs = []
        for spec in specs:
            profile, importance, _ = inputs(space, spec)
            qimp = _axis_columns(space, profile, importance)[0]
            signs.append((
                math.copysign(1.0, qimp[0][0]),
                math.copysign(1.0, importance.cost_per_dollar),
            ))
        assert signs == [(1.0, 1.0), (-1.0, -1.0)]
        for spec in specs:
            assert streamed(space, spec) == fresh_rows(
                space, *inputs(space, spec)
            )
        assert len(space.order_memo) == 1


# -- the columns memo ----------------------------------------------------------


def signed_zero_importance(sign):
    """Level entries a zero of ``sign``, both scales ``-0.0``: with
    ``sign`` −1 each QoS column is ``-0.0``, with +1 it is ``0.0``."""
    zero = math.copysign(0.0, sign)
    return ImportanceProfile(
        color={mode: zero for mode in ColorMode},
        frame_rate=ScaleImportance(anchors={1.0: -0.0}),
        resolution=ScaleImportance(anchors={10.0: -0.0}),
        audio_grade={grade: zero for grade in AudioGrade},
        language={language: zero for language in Language},
        media_weight={},
    )


TABLE_BUILDERS = (
    default_importance,
    lambda: default_importance().with_cost_per_dollar(2.0),
    lambda: default_importance().with_frame_rate_override(15, 5.0),
    lambda: default_importance().with_frame_rate_override(25, -0.0),
    lambda: default_importance().with_resolution_override(
        GRID_RESOLUTION, 3.0
    ),
    lambda: default_importance().with_media_weight("video", 0.0),
    lambda: default_importance().with_media_weight("video", -0.0),
    lambda: default_importance()
    .with_media_weight("video", -0.0)
    .with_color(ColorMode.GREY, -0.0),
    lambda: signed_zero_importance(1.0),
    lambda: signed_zero_importance(-1.0),
)
"""Fresh objects on every call, so equal content never shares identity;
zero entries of both signs, overrides on both scales, and one table
that differs from the default only in its cost term."""

COLUMN_WEIGHTS = (None, {}, {"server-a": 0.0}, {"server-a": -0.0})
CEILINGS = (0, 500, 5_000, 90_000)
NAMES = ("grid", "renamed")


def hex_columns(qimp, levels):
    return (
        [[value.hex() for value in column] for column in qimp],
        [list(column) for column in levels],
    )


@st.composite
def column_pools(draw):
    """A base column request and up to eleven neighbours, each differing
    from the base in one of bounds, table, weights, ceiling or name.  A
    request is ``(bounds, table builder, weights, ceiling, name)``; the
    weights choices add one drawn ``server_weights()`` map."""
    choices = (
        BOUNDS,
        TABLE_BUILDERS,
        COLUMN_WEIGHTS + (draw(server_weights()),),
        CEILINGS,
        NAMES,
    )
    base = [draw(st.sampled_from(options)) for options in choices]
    pool = [tuple(base)]
    for _ in range(draw(st.integers(min_value=1, max_value=11))):
        spec = list(base)
        component = draw(st.integers(min_value=0, max_value=len(choices) - 1))
        spec[component] = draw(st.sampled_from(choices[component]))
        pool.append(tuple(spec))
    return pool


def column_request(spec):
    """Fresh profile and importance objects for one pool entry."""
    (desired, worst), builder, weights, cents, name = spec
    profile = replace(
        weighted(grid_profile(desired, worst, cents), weights), name=name
    )
    return profile, builder()


class TestColumnsMemo:
    """``stream._columns`` hands every request the columns a fresh
    ``_axis_columns`` scores for it, bit for bit, whatever the requests
    before it left in the memo."""

    @given(
        spaces,
        column_pools(),
        st.lists(st.integers(min_value=0, max_value=11), max_size=24),
    )
    @settings(max_examples=200, deadline=None)
    def test_memoised_columns_are_fresh_columns(self, space, pool, picks):
        for pick in picks:
            profile, importance = column_request(pool[pick % len(pool)])
            qimp, levels = stream._columns(space, profile, importance)
            fresh_qimp, _, fresh_levels = _axis_columns(
                space, profile, importance
            )
            assert hex_columns(qimp, levels) == hex_columns(
                fresh_qimp, fresh_levels
            )
            assert len(space.columns_memo) <= stream.ORDER_MEMO_SIZE

    def test_every_pair_of_tables_and_weights(self):
        """Every ordered pair of (table, weights) requests, the second
        made right after the first on a space whose memo holds only
        the first: the second gets its own columns."""
        space = grid_space([GRID_FLAVOURS[:3], GRID_FLAVOURS[1:]])
        requests = [
            (BOUNDS[0], builder, weights, 500, "grid")
            for builder in TABLE_BUILDERS
            for weights in COLUMN_WEIGHTS + ({"server-b": 0.25},)
        ]
        for first in requests:
            for second in requests:
                space.columns_memo.clear()
                stream._columns(space, *column_request(first))
                profile, importance = column_request(second)
                qimp, levels = stream._columns(space, profile, importance)
                fresh = _axis_columns(space, profile, importance)
                assert hex_columns(qimp, levels) == hex_columns(
                    fresh[0], fresh[2]
                )

    def test_signed_zero_tables_keep_their_signs(self):
        """Two tables whose columns differ only in the sign of zero,
        with no server weights or a ``0.0`` / ``-0.0`` weight on
        ``server-a``: six keys and three sets of bits — all ``0.0``, all
        ``-0.0``, and ``-0.0`` on ``server-a`` only (``-0.0 + 0.0`` is
        ``0.0``) — each request getting its own."""
        space = grid_space([GRID_FLAVOURS[:3], GRID_FLAVOURS[1:]])
        seen = set()
        for sign in (1.0, -1.0):
            for weights in (None, {"server-a": 0.0}, {"server-a": -0.0}):
                profile = weighted(
                    grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], 500),
                    weights,
                )
                importance = signed_zero_importance(sign)
                qimp, levels = stream._columns(space, profile, importance)
                fresh = _axis_columns(space, profile, importance)
                assert hex_columns(qimp, levels) == hex_columns(
                    fresh[0], fresh[2]
                )
                seen.add(str(hex_columns(qimp, levels)))
        assert len(seen) == 3
        assert len(space.columns_memo) == 6

    def test_ceiling_and_name_share_one_scoring(self):
        """Profiles that differ only in cost ceiling or name, each with
        a fresh equal-content importance, get the one memoised set."""
        space = grid_space([GRID_FLAVOURS[:4], GRID_FLAVOURS[1:]])
        base = grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], 500)
        variants = [
            base,
            grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], 90_000),
            replace(base, name="renamed"),
            grid_profile(GRID_FLAVOURS[1], GRID_FLAVOURS[4], 0),
        ]
        first = stream._columns(space, base, default_importance())
        for profile in variants:
            assert stream._columns(
                space, profile, default_importance()
            ) is first
        assert len(space.columns_memo) == 1
