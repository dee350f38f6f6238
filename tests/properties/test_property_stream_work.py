"""What the stream computes, counted — no clock is read.

A counting wrapper around the frontier's candidate function measures
the work a pull costs.  Band laziness promises that the first *n*
offers cost O((axes + 1) · (n + bands)) candidates whatever the size of
the product space, and that a full drain computes a candidate at most
once per band search whose sub-product holds it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stream
from repro.core.classification import (
    ClassificationPolicy,
    _axis_columns,
    classify_arrays,
)
from repro.core.importance import default_importance
from repro.core.stream import stream_classified

from .strategies import (
    GRID_FLAVOURS,
    banded_cases,
    grid_profile,
    grid_space,
    offer_cost_bounds,
)

BANDS = 3


class CandidateCounter:
    """Counts calls of ``stream._candidate`` while installed."""

    def __init__(self):
        self.calls = 0
        self._inner = stream._candidate

    def __call__(self, tables, orders, pos):
        self.calls += 1
        return self._inner(tables, orders, pos)

    def __enter__(self):
        stream._candidate = self
        return self

    def __exit__(self, *exc):
        stream._candidate = self._inner


def pull_bound(axes: int, n: int) -> int:
    """Each band search computes its seed plus at most ``axes``
    children per popped position, and pops the offers it delivers plus
    the ones earlier bands already delivered: 3·(axes + 1)·(n + 1)."""
    return BANDS * (axes + 1) * (n + 1)


def sub_product_sizes(space, profile):
    """|S_L| for L = 0, 1, 2: the offers of raw SNS level ≤ L."""
    _, _, level_axes = _axis_columns(space, profile, default_importance())
    return [
        math.prod(
            sum(level <= band for level in levels) for levels in level_axes
        )
        for band in range(BANDS)
    ]


class TestPullWork:
    @given(
        st.sampled_from(["empty", "single", "any"]).flatmap(
            lambda shape: banded_cases(shape, budgets=("none", "all"))
        ),
        st.sampled_from(list(ClassificationPolicy)),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_first_n_offers_cost_n_not_the_catalogue(self, case, policy, n):
        """With a budget that treats each sub-product uniformly (all
        affordable, or none), no band search ever pops an offer it must
        demote, so the bound holds with no reference to offer_count."""
        space, profile = case
        with CandidateCounter() as counter:
            pulled = list(itertools.islice(
                stream_classified(
                    space, profile, default_importance(), policy=policy
                ),
                n,
            ))
        assert len(pulled) == min(n, space.offer_count)
        assert counter.calls <= pull_bound(len(space.monomedia_ids), n)

    @given(
        st.sampled_from(["empty", "single", "any"]).flatmap(banded_cases),
        st.sampled_from(list(ClassificationPolicy)),
    )
    @settings(max_examples=120, deadline=None)
    def test_full_drain_computes_each_candidate_once_per_band(
        self, case, policy
    ):
        """Every budget, mixed affordability included.  A drained band
        search computes each position of its sub-product exactly once;
        a band is searched only if its sub-product grew past the
        previous band's or offers demoted into it exist."""
        space, profile = case
        importance = default_importance()
        with CandidateCounter() as counter:
            drained = sum(
                1 for _ in stream_classified(
                    space, profile, importance, policy=policy
                )
            )
        assert drained == space.offer_count
        if policy is ClassificationPolicy.PURE_OIF:
            assert counter.calls == space.offer_count
            return
        sizes = sub_product_sizes(space, profile)
        populated = np.bincount(
            classify_arrays(
                space, profile, importance, policy=policy
            ).sns_levels,
            minlength=BANDS,
        )
        allowed = sum(
            size
            for band, size in enumerate(sizes)
            if size and (
                populated[band] or size != (sizes[band - 1] if band else 0)
            )
        )
        assert counter.calls <= allowed


class TestCatalogueScale:
    """Deterministic cells far above anything a drain could afford."""

    AXES = 10

    def _space(self):
        return grid_space([GRID_FLAVOURS[:4]] * self.AXES)

    def _count(self, profile, policy, n):
        space = self._space()
        assert space.offer_count == 4 ** self.AXES
        with CandidateCounter() as counter:
            pulled = list(itertools.islice(
                stream_classified(
                    space, profile, default_importance(), policy=policy
                ),
                n,
            ))
        return pulled, counter.calls

    @pytest.mark.parametrize(
        "policy",
        [ClassificationPolicy.SNS_PRIMARY, ClassificationPolicy.COST_GATED],
    )
    def test_second_offer_of_a_one_offer_desirable_band(self, policy):
        """The case that used to drain 4^10 positions: the DESIRABLE
        band holds one offer, so the second pull crosses into the next
        band."""
        _, dearest = offer_cost_bounds(self._space())
        profile = grid_profile(GRID_FLAVOURS[0], GRID_FLAVOURS[4], dearest)
        pulled, calls = self._count(profile, policy, 2)
        assert [int(c.sns) for c in pulled] == [0, 1]
        assert calls <= pull_bound(self.AXES, 2)

    @pytest.mark.parametrize("policy", list(ClassificationPolicy))
    def test_all_unaffordable_budget_skips_to_the_populated_band(self, policy):
        """Nothing is affordable: the DESIRABLE band (and under
        COST_GATED the ACCEPTABLE one) is empty by the O(axes) cost
        bound alone and is never searched."""
        cheapest, _ = offer_cost_bounds(self._space())
        profile = grid_profile(
            GRID_FLAVOURS[0], GRID_FLAVOURS[4], cheapest - 1
        )
        pulled, calls = self._count(profile, policy, 5)
        assert not any(c.affordable for c in pulled)
        # One search only: its seed plus ``axes`` children per pop.
        assert calls <= 1 + self.AXES * 5
