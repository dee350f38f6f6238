"""Classification of system offers (paper §5).

Each feasible offer gets two classification parameters (§4 step 3):

* its **static negotiation status** — DESIRABLE / ACCEPTABLE /
  CONSTRAINT, "a simple comparison between the QoS associated with the
  offer and the user profile" (§5.2.1);
* its **overall importance factor** — ``OIF = QoS_importance −
  cost_importance`` (§5.2.2).

§4 step 4 then sorts: "we use the static negotiation status as primary
classification parameter, and the OIF as the secondary classification
parameter" (§5.2.2(c)).  That is :data:`ClassificationPolicy.SNS_PRIMARY`,
the default.  Two additional policies are provided:

* ``PURE_OIF`` — order by OIF alone.  The paper's own example (3) in
  §5.2.2 prints this order (see DESIGN.md: with SNS primary, offer4 —
  the only ACCEPTABLE offer — would sort first, yet the paper lists it
  last); implementing both makes the discrepancy reproducible.
* ``COST_GATED`` — like SNS_PRIMARY, but an offer whose cost exceeds
  the user's maximum is demoted to CONSTRAINT, realising §5.2.2(c)'s
  "at first we consider only the offers which satisfy the cost and the
  QoS requested by the user" as a status rather than a scan order.

The production path is the best-first stream of
:mod:`repro.core.stream`, which yields the classified order lazily and
orders every request.  Two eager routines here are its references: a
scalar one (:func:`classify_offers`, offer objects in hand) and a
vectorized one over an :class:`~repro.core.enumeration.OfferSpace`
(:func:`classify_space`) that classifies the whole product space with
numpy and only materialises the offers it returns.  The three are
property-tested to agree.  Both parameters are separable across
monomedia, so neither the vectorized routine nor the stream ever scores
an offer: each *variant* is scored once, by the one routine both share
(``_axis_columns``), and offers are sums and maxima of that.  Server
preference weights are one more per-variant term of that score.  Every
request is ordered by ``(SNS, −OIF, flat index)``; the scalar
reference adds the summed weights after its OIF, so it agrees up to
float rounding on exact ties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..util.errors import OfferError, ValidationError
from .enumeration import OfferSpace
from .importance import ImportanceProfile
from .offers import SystemOffer
from .preferences import UserPreferences
from .profiles import UserProfile
from .status import StaticNegotiationStatus

__all__ = [
    "ClassificationPolicy",
    "ClassificationArrays",
    "ClassifiedOffer",
    "compute_sns",
    "check_top_k",
    "classify_offer",
    "classify_offers",
    "classify_arrays",
    "classify_space",
    "walk_order",
    "MAX_VECTOR_OFFERS",
]

MAX_VECTOR_OFFERS = 4_000_000
"""Safety ceiling for the vectorized product-space classification."""


class ClassificationPolicy(enum.Enum):
    SNS_PRIMARY = "sns-primary"
    PURE_OIF = "pure-oif"
    COST_GATED = "cost-gated"


@dataclass(frozen=True, slots=True)
class ClassifiedOffer:
    """A system offer with its §4-step-3 classification parameters."""

    offer: SystemOffer
    sns: StaticNegotiationStatus
    oif: float
    affordable: bool

    @property
    def satisfies_user(self) -> bool:
        """Whether this offer meets both the QoS and the cost the user
        requested — the §4 step 5 acceptance test ("the best system
        offer that satisfies the QoS/cost requested by the user")."""
        return self.sns.satisfies_user and self.affordable

    def __str__(self) -> str:
        return (
            f"{self.offer.offer_id}: {self.sns} OIF={self.oif:g} "
            f"cost={self.offer.cost}"
        )


def compute_sns(offer: SystemOffer, profile: UserProfile) -> StaticNegotiationStatus:
    """§5.2.1: compare the offer against the user profile.

    DESIRABLE satisfies the *full* desired profile — QoS and cost: the
    paper's own example classifies offer4, whose QoS equals the desired
    QoS but whose 5 $ price exceeds the 4 $ maximum, as ACCEPTABLE, so
    the desired level must include the cost bound.  ACCEPTABLE is the
    pure QoS comparison against the worst-acceptable values (offer4
    stays ACCEPTABLE despite its price).
    """
    if offer.qos_satisfies(profile.desired) and offer.cost_within(profile.max_cost):
        return StaticNegotiationStatus.DESIRABLE
    if offer.qos_satisfies(profile.worst):
        return StaticNegotiationStatus.ACCEPTABLE
    return StaticNegotiationStatus.CONSTRAINT


def classify_offer(
    offer: SystemOffer,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> ClassifiedOffer:
    """Classification parameters of a single offer; server preference
    weights add the offer's bonus to its OIF."""
    sns = compute_sns(offer, profile)
    affordable = offer.cost_within(profile.max_cost)
    if policy is ClassificationPolicy.COST_GATED and not affordable:
        sns = StaticNegotiationStatus.CONSTRAINT
    oif = importance.overall_importance(list(offer.qos_points()), offer.cost)
    if isinstance(profile.preferences, UserPreferences):
        oif += profile.preferences.offer_bonus(offer)
    return ClassifiedOffer(offer=offer, sns=sns, oif=oif, affordable=affordable)


def check_top_k(top_k: "int | None", *, parameter: str = "top_k") -> "int | None":
    """Validate a best-first truncation bound.

    ``None`` means "no bound".  Anything below 1 is a caller error: a
    zero bound used to be clamped silently, which made
    ``negotiate(max_offers=0)`` report FAILEDTRYLATER with zero
    attempts instead of surfacing the bad argument.
    """
    if top_k is None:
        return None
    value = int(top_k)
    if value < 1:
        raise ValidationError(
            f"{parameter} must be at least 1 (got {top_k!r}); "
            f"pass None for an unbounded classification"
        )
    return value


def _sort_key(
    policy: ClassificationPolicy,
) -> "Callable[[ClassifiedOffer], tuple[float, ...]]":
    if policy is ClassificationPolicy.PURE_OIF:
        return lambda item: (-item.oif,)
    return lambda item: (int(item.sns), -item.oif)


def classify_offers(
    offers: Iterable[SystemOffer],
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> list[ClassifiedOffer]:
    """§4 step 4 (scalar reference): best offer first.

    The sort is stable, so equal-key offers keep enumeration order.
    """
    classified = [
        classify_offer(offer, profile, importance, policy=policy)
        for offer in offers
    ]
    classified.sort(key=_sort_key(policy))
    return classified


# ---------------------------------------------------------------------------
# vectorized product-space classification
# ---------------------------------------------------------------------------

def _axis_columns(
    space: OfferSpace, profile: UserProfile, importance: ImportanceProfile
) -> "tuple[list[list[float]], Sequence[Sequence[int]], list[list[int]]]":
    """§4 step 3 for every variant of a non-empty space, once: per
    axis, the QoS-importance column, the cost-share column (cents) and
    the SNS-level column — 0 desirable / 1 acceptable / 2 constraint
    relative to the profile bounds of the axis's medium — each indexed
    by variant.  Both orderings (:func:`classify_arrays` and the
    best-first stream) are built on these columns and nothing else;
    the stream keeps them on the space, once per distinct importance
    tables, QoS bounds and server weights (``OfferSpace.columns_memo``).

    A server preference weight is added to the variant's QoS
    importance, so an offer's OIF carries its variants' summed weights;
    only a request that carries weights pays for them.

    An axis is one monomedia, hence one medium, so its two bounds are
    fetched once, not per variant; a medium the profile leaves out is
    not compared (§5: the comparison skips it).
    """
    qos_importance = importance.qos_importance
    desired_for, worst_for = profile.desired.qos_for, profile.worst.qos_for
    preferences = profile.preferences
    weights = (
        preferences.server_preference
        if isinstance(preferences, UserPreferences) else None
    )
    importance_axes: "list[list[float]]" = []
    level_axes: "list[list[int]]" = []
    for axis, presented in zip(space.axes, space.presented_axes):
        column = [qos_importance(qos) for qos in presented]
        if weights:
            column = [
                value + weights.get(choice.variant.server_id, 0.0)
                for value, choice in zip(column, axis)
            ]
        importance_axes.append(column)
        medium = presented[0].medium
        desired, worst = desired_for(medium), worst_for(medium)
        levels: "list[int]" = []
        for qos in presented:
            if desired is None or qos.satisfies(desired):
                levels.append(0)
            elif worst is None or qos.satisfies(worst):
                levels.append(1)
            else:
                levels.append(2)
        level_axes.append(levels)
    return importance_axes, space.cents_axes, level_axes


@dataclass(frozen=True)
class ClassificationArrays:
    """The vectorized §4-step-3/4 products over a whole offer space.

    ``order`` lists flat product indices best-first; the other arrays
    are indexed by flat product index.
    """

    order: np.ndarray
    sns_levels: np.ndarray
    oif: np.ndarray
    affordable: np.ndarray

    def materialize(
        self, space: OfferSpace, top_k: "int | None" = None
    ) -> list[ClassifiedOffer]:
        """Turn the best-first index order into classified offers,
        materialising only the first ``top_k`` (all when None)."""
        order = self.order
        if top_k is not None:
            order = order[: int(top_k)]
        results: list[ClassifiedOffer] = []
        for flat in order:
            offer = space.offer_at(int(flat))
            results.append(
                ClassifiedOffer(
                    offer=offer,
                    sns=StaticNegotiationStatus(int(self.sns_levels[flat])),
                    oif=float(self.oif[flat]),
                    affordable=bool(self.affordable[flat]),
                )
            )
        return results


def classify_arrays(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> ClassificationArrays:
    """Vectorized §4 steps 3–4 over the whole product space.

    Exploits the separability of both parameters across monomedia:
    the offer OIF is a sum of per-axis contributions minus the cost
    term, and the offer SNS is the max of per-axis levels.
    """
    if space.is_empty:
        raise OfferError("cannot classify an empty offer space")
    count = space.offer_count
    if count > MAX_VECTOR_OFFERS:
        raise OfferError(
            f"offer space has {count} offers, above the vectorization "
            f"ceiling of {MAX_VECTOR_OFFERS}; prune variants first"
        )

    sizes = space.sizes
    k = len(sizes)

    def _expand(per_axis: "list[np.ndarray]", dtype) -> np.ndarray:
        """Broadcast per-axis vectors over the product space and sum."""
        total = np.zeros(sizes, dtype=dtype)
        for dim, values in enumerate(per_axis):
            shape = [1] * k
            shape[dim] = sizes[dim]
            total = total + values.reshape(shape)
        return total.reshape(-1)

    importance_columns, cents_columns, level_columns = _axis_columns(
        space, profile, importance
    )
    importance_axes = [
        np.array(column, dtype=np.float64) for column in importance_columns
    ]
    cents_axes = [np.array(column, dtype=np.int64) for column in cents_columns]
    level_axes = [np.array(column, dtype=np.int8) for column in level_columns]

    qos_importance = _expand(importance_axes, np.float64)
    cents = _expand(cents_axes, np.int64) + space.copyright_cents
    cost_dollars = cents.astype(np.float64) / 100.0
    oif = qos_importance - importance.cost_per_dollar * cost_dollars

    level_total = np.zeros(sizes, dtype=np.int8)
    for dim, levels in enumerate(level_axes):
        shape = [1] * k
        shape[dim] = sizes[dim]
        level_total = np.maximum(level_total, levels.reshape(shape))
    sns_levels = level_total.reshape(-1)

    affordable = cents <= profile.max_cost.cents
    # DESIRABLE additionally requires the cost bound (see compute_sns):
    # QoS-desirable but unaffordable offers demote to ACCEPTABLE.
    sns_levels = np.where(
        (sns_levels == 0) & ~affordable, np.int8(1), sns_levels
    )
    if policy is ClassificationPolicy.COST_GATED:
        sns_levels = np.where(affordable, sns_levels, np.int8(2))

    index = np.arange(count)
    if policy is ClassificationPolicy.PURE_OIF:
        order = np.lexsort((index, -oif))
    else:
        order = np.lexsort((index, -oif, sns_levels))

    return ClassificationArrays(
        order=order, sns_levels=sns_levels, oif=oif, affordable=affordable
    )


def classify_space(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
    top_k: "int | None" = None,
) -> list[ClassifiedOffer]:
    """Classify the entire offer space vectorized; return the ordered
    (best-first) classified offers, materialising only ``top_k`` of
    them (all when ``top_k`` is None)."""
    top_k = check_top_k(top_k)
    if space.is_empty:
        return []
    arrays = classify_arrays(space, profile, importance, policy=policy)
    return arrays.materialize(space, top_k)


def walk_order(
    offers: "Iterable[ClassifiedOffer]",
    policy: "ClassificationPolicy | None",
    pulled: "list[ClassifiedOffer] | None" = None,
) -> "Iterator[ClassifiedOffer]":
    """The order step 5 attempts ``offers`` in (§5.2.2(c)): the offers
    that satisfy the user's QoS and cost first, then the rest, each
    group in the order given.

    ``offers`` is consumed lazily.  A non-satisfying offer is held back
    until no satisfying one can follow: under the SNS-primary policies
    that is the first CONSTRAINT offer of a classified list (the bands
    below it hold nothing else), and from there the input is passed
    through one offer at a time; under ``PURE_OIF``, or with ``policy``
    ``None`` for a list that is not in classified order, only the
    drained input proves it.  Every offer taken from ``offers`` is
    appended to ``pulled`` as it is taken, so a caller that stops early
    knows the prefix it consumed and can continue from the iterator it
    passed in.
    """
    banded = policy in (
        ClassificationPolicy.SNS_PRIMARY, ClassificationPolicy.COST_GATED
    )
    offers = iter(offers)
    if pulled is None:
        pulled = []
    deferred: "list[ClassifiedOffer]" = []
    for item in offers:
        pulled.append(item)
        if item.satisfies_user:
            yield item
            continue
        deferred.append(item)
        if banded and item.sns is StaticNegotiationStatus.CONSTRAINT:
            break
    yield from deferred
    for item in offers:  # what the break above left unpulled
        pulled.append(item)
        yield item
