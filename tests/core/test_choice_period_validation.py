"""``choicePeriod`` validation (§8): zero, negative and non-finite
periods are rejected everywhere one can enter the system — profile
construction and commitment creation."""

import math

import pytest

from repro.core.classification import classify_space
from repro.core.commitment import Commitment, ResourceCommitter
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.profiles import TimeProfile
from repro.util.errors import ValidationError

BAD_PERIODS = [0.0, -1.0, -60.0, math.nan, math.inf, -math.inf]


class TestTimeProfile:
    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_bad_choice_period_rejected_at_construction(self, period):
        with pytest.raises(ValidationError, match="choice_period_s"):
            TimeProfile(choice_period_s=period)

    def test_positive_period_accepted(self):
        assert TimeProfile(choice_period_s=0.5).choice_period_s == 0.5


class TestCommitment:
    @pytest.fixture
    def committed(self, document, client, transport, servers, clock,
                  balanced_profile):
        space = build_offer_space(document, client, default_cost_model())
        committer = ResourceCommitter(transport, servers, clock=clock)
        ranked = classify_space(space, balanced_profile, default_importance())
        bundle = committer.try_commit(
            ranked[0].offer, space, client.access_point, holder="s1"
        )
        return bundle, committer

    @pytest.mark.parametrize("period", BAD_PERIODS)
    def test_bad_choice_period_rejected(self, committed, period):
        bundle, committer = committed
        with pytest.raises(ValidationError, match="choice_period_s"):
            Commitment(
                bundle, committer, reserved_at=0.0, choice_period_s=period
            )

    def test_negative_reserved_at_rejected(self, committed):
        bundle, committer = committed
        with pytest.raises(ValidationError, match="reserved_at"):
            Commitment(
                bundle, committer, reserved_at=-1.0, choice_period_s=60.0
            )
