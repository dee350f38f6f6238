"""What planning a request on a warm offer space costs, counted — no
clock is read.

Step 1 returns a local offer only with FAILEDWITHLOCALOFFER, so a
supported request builds no ``MMProfile``, no ``LocalCheckResult`` and
no QoS point while it is planned, and walking a profile's media reads
no ``Enum.value``; with the telemetry hub disabled, neither does the
step-4 span it does not record.  Step 2's account of a space (variants kept and
dropped, drops per monomedia) is a constant of the immutable space: it
is worked out when the space is built and read by every request, while
the step-2 span and the ``negotiation.offers.*`` counters report the
amounts a per-request sum over ``axis_sizes()`` and ``rejected`` gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import machine
from repro.client.machine import ClientMachine
from repro.core import enumeration, standard_profiles
from repro.core.classification import ClassificationPolicy
from repro.core.profiles import MMProfile
from repro.documents import quality
from repro.documents.builder import make_news_article
from repro.documents.media import ColorMode, Medium
from repro.perf.cache import SPACES, NegotiationCache
from repro.telemetry import InMemorySpanExporter, Telemetry
from repro.util.clock import ManualClock

from .strategies import grid_manager

QOS_CLASSES = (
    quality.VideoQoS,
    quality.AudioQoS,
    quality.ImageQoS,
    quality.TextQoS,
    quality.GraphicQoS,
)


class Built:
    """Counts constructions of step 1's products while installed."""

    def __init__(self, monkeypatch):
        self.counts = {"MMProfile": 0, "LocalCheckResult": 0, "QoS point": 0}
        self.enum_values = 0
        self._wrap(monkeypatch, MMProfile, "__post_init__", "MMProfile")
        self._wrap(
            monkeypatch, machine.LocalCheckResult, "__init__",
            "LocalCheckResult",
        )
        for qos_class in QOS_CLASSES:
            self._wrap(monkeypatch, qos_class, "__post_init__", "QoS point")

        def value(member):
            self.enum_values += 1
            return member._value_

        monkeypatch.setattr(Medium, "value", property(value), raising=False)
        monkeypatch.setattr(
            ClassificationPolicy, "value", property(value), raising=False
        )

    def _wrap(self, monkeypatch, owner, name, tally):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.counts[tally] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def article_manager(**options):
    """A cached deployment of one news article whose M-JPEG video
    variants the standard client cannot decode (step 2 drops them)."""
    document = make_news_article(video_servers=("server-a", "server-b"))
    return document, grid_manager(
        [document], (64, 64, 64), cache=NegotiationCache(), **options
    )


PROFILES = {profile.name: profile for profile in standard_profiles()}
BALANCED = PROFILES["balanced"]


class TestSupportedRequestBuildsNothing:
    @given(st.sampled_from(sorted(PROFILES)), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_warm_plan_builds_no_local_offer(self, name, repeats):
        document, manager = article_manager()
        client = ClientMachine("c", access_point="client-net")
        profile = PROFILES[name]
        manager.plan(document.document_id, profile, client)
        with pytest.MonkeyPatch.context() as monkeypatch:
            built = Built(monkeypatch)
            for _ in range(repeats):
                plan = manager.plan(document.document_id, profile, client)
                assert plan.early is None
                # Iterating the profile's media reads no Enum.value.
                assert [m for m, _ in profile.desired.qos_points()] == list(
                    profile.desired.media_present()
                )
        assert built.counts == {
            "MMProfile": 0, "LocalCheckResult": 0, "QoS point": 0
        }
        assert built.enum_values == 0
        assert manager.cache.stats.hits[SPACES] == repeats

    def test_a_failing_request_still_gets_its_local_offer(self):
        # The control: the same counters see the local offer a failure
        # builds, so the zeros above are not a blind patch.
        document, manager = article_manager()
        client = ClientMachine(
            "bw", access_point="client-net",
            screen_color=ColorMode.BLACK_AND_WHITE,
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            built = Built(monkeypatch)
            plan = manager.plan(document.document_id, BALANCED, client)
        assert plan.early is not None
        assert plan.early.user_offer is not None
        assert built.counts["MMProfile"] == 1
        assert built.counts["QoS point"] >= 1


def step2_reference(space):
    """The per-request sums the counts replace."""
    kept = sum(space.axis_sizes().values())
    dropped = sum(len(v) for v in space.rejected.values())
    reasons = {
        monomedia: len(variants)
        for monomedia, variants in sorted(space.rejected.items())
        if variants
    }
    return kept, dropped, reasons


class TestStep2CountsOncePerSpace:
    N = 5

    def test_counts_are_read_not_summed(self, monkeypatch):
        document, manager = article_manager()
        client = ClientMachine("c", access_point="client-net")
        space = manager.plan(document.document_id, BALANCED, client).space
        kept, dropped, reasons = step2_reference(space)
        assert dropped > 0 and reasons
        assert (space.kept_variants, space.dropped_variants) == (kept, dropped)
        assert space.drop_reasons == reasons
        assert list(space.drop_reasons) == list(reasons)

        def refuse(*args, **kwargs):
            raise AssertionError("step 2 re-summed the space")

        class Unreadable(dict):
            values = items = keys = __iter__ = refuse

        monkeypatch.setattr(enumeration.OfferSpace, "axis_sizes", refuse)
        monkeypatch.setattr(space, "rejected", Unreadable(space.rejected))
        for _ in range(self.N):
            manager.plan(document.document_id, BALANCED, client)
        assert manager.cache.stats.hits[SPACES] == self.N

    def test_span_and_counters_keep_their_amounts(self):
        clock = ManualClock()
        exporter = InMemorySpanExporter()
        telemetry = Telemetry(clock=clock)
        telemetry.tracer.add_exporter(exporter)
        document, manager = article_manager(telemetry=telemetry, clock=clock)
        client = ClientMachine("c", access_point="client-net")
        for _ in range(self.N):
            result = manager.negotiate(
                document.document_id, BALANCED, client
            )
            if result.commitment is not None:
                result.commitment.release()
        kept, dropped, reasons = step2_reference(result.offer_space)
        step2 = [
            span for span in exporter.spans
            if span.name == "negotiation.step2.filter"
        ][-1]
        assert step2.attributes["offers_in"] == kept + dropped
        assert step2.attributes["offers_out"] == kept
        assert step2.attributes["dropped"] == dropped
        assert step2.attributes["drop_reasons"] == reasons
        assert step2.attributes["offer_count"] == (
            result.offer_space.offer_count
        )
        step4 = [
            span for span in exporter.spans
            if span.name == "negotiation.step4.classify"
        ][-1]
        assert step4.attributes["policy"] == manager.policy.value
        metrics = telemetry.metrics
        assert metrics.counter_value("negotiation.offers.enumerated") == (
            self.N * (kept + dropped)
        )
        assert metrics.counter_value(
            "negotiation.offers.dropped", step="2"
        ) == self.N * dropped
