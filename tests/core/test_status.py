"""Negotiation status enums (paper §4/§5.2.1)."""

from repro.core.status import NegotiationStatus, StaticNegotiationStatus


class TestNegotiationStatus:
    def test_paper_values(self):
        # §4 lists exactly five status values with these spellings.
        assert {s.value for s in NegotiationStatus} == {
            "SUCCEEDED",
            "FAILEDWITHOFFER",
            "FAILEDTRYLATER",
            "FAILEDWITHOUTOFFER",
            "FAILEDWITHLOCALOFFER",
        }

    def test_success_flag(self):
        assert NegotiationStatus.SUCCEEDED.is_success
        assert not NegotiationStatus.FAILED_WITH_OFFER.is_success

    def test_reserving_statuses(self):
        # Only step-5 successes hold resources pending confirmation.
        assert NegotiationStatus.SUCCEEDED.reserves_resources
        assert NegotiationStatus.FAILED_WITH_OFFER.reserves_resources
        assert not NegotiationStatus.FAILED_WITH_LOCAL_OFFER.reserves_resources

    def test_str_is_paper_spelling(self):
        assert str(NegotiationStatus.FAILED_TRY_LATER) == "FAILEDTRYLATER"


class TestStaticNegotiationStatus:
    def test_sort_order_best_first(self):
        ranked = sorted(StaticNegotiationStatus)
        assert ranked == [
            StaticNegotiationStatus.DESIRABLE,
            StaticNegotiationStatus.ACCEPTABLE,
            StaticNegotiationStatus.CONSTRAINT,
        ]

    def test_satisfies_user(self):
        assert StaticNegotiationStatus.DESIRABLE.satisfies_user
        assert StaticNegotiationStatus.ACCEPTABLE.satisfies_user
        assert not StaticNegotiationStatus.CONSTRAINT.satisfies_user

    def test_str(self):
        assert str(StaticNegotiationStatus.DESIRABLE) == "DESIRABLE"
