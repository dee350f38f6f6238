"""E10 — classification at scale: vectorized vs scalar.

§5's classification runs over the cartesian offer space, which grows as
variants^monomedia.  This experiment measures enumeration+classification
time as the space grows and verifies the vectorized path's speedup over
the scalar reference while producing identical rankings (the equivalence
is property-tested; here we time it).

``benchmarks/out/E10.txt`` holds only what a run cannot change: each
space's size and whether the two top-10 rankings agree.  The wall-clock
timings depend on the host, so they are printed, not written.
"""

import time

import pytest

from repro.client.machine import ClientMachine
from repro.core.classification import classify_offers, classify_space
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.profile_manager import standard_profiles
from repro.documents.builder import make_news_article
from repro.documents.media import Codecs, ColorMode
from repro.util.tables import render_table

PROFILE = next(p for p in standard_profiles() if p.name == "balanced")


def space_of_size(frame_rates, colors, resolutions):
    document = make_news_article(
        "doc.e10",
        video_codecs=(Codecs.MPEG1, Codecs.MPEG2),
        frame_rates=frame_rates,
        colors=colors,
        resolutions=resolutions,
        audio_servers=("server-a", "server-b"),
    )
    client = ClientMachine("c1")
    return build_offer_space(document, client, default_cost_model())


SIZES = {
    "small": ((25, 15), (ColorMode.COLOR,), (720,)),
    "medium": ((25, 15, 5), (ColorMode.COLOR, ColorMode.GREY), (720,)),
    "large": (
        (25, 15, 10, 5),
        (ColorMode.COLOR, ColorMode.GREY, ColorMode.BLACK_AND_WHITE),
        (720, 360),
    ),
}


@pytest.fixture(scope="module")
def timings():
    importance = default_importance()
    rows = []
    for label, (rates, colors, resolutions) in SIZES.items():
        space = space_of_size(rates, colors, resolutions)

        start = time.perf_counter()
        vectorized = classify_space(space, PROFILE, importance, top_k=10)
        t_vector = time.perf_counter() - start

        start = time.perf_counter()
        scalar = classify_offers(space.materialize(), PROFILE, importance)
        t_scalar = time.perf_counter() - start

        identical = [c.offer.variant_ids for c in vectorized] == [
            c.offer.variant_ids for c in scalar[:10]
        ]
        rows.append((label, space.offer_count, identical, t_scalar, t_vector))
    return rows


def test_e10_scalability(benchmark, timings, publish):
    importance = default_importance()
    space = space_of_size(*SIZES["large"])
    benchmark(lambda: classify_space(space, PROFILE, importance, top_k=10))

    publish(
        "E10",
        render_table(
            ("space", "offers", "identical top-10"),
            [
                (label, count, "yes" if identical else "no")
                for label, count, identical, _, _ in timings
            ],
            title="E10 - vectorized vs scalar classification: offer-space "
                  "size and top-10 agreement",
        ),
    )
    print(
        render_table(
            ("space", "scalar classify", "vectorized (top-10)", "speedup"),
            [
                (
                    label,
                    f"{t_scalar * 1e3:.1f} ms",
                    f"{t_vector * 1e3:.1f} ms",
                    f"{t_scalar / t_vector:.1f}x",
                )
                for label, _, _, t_scalar, t_vector in timings
            ],
            title="E10 timings on this host (not written to benchmarks/out)",
        )
    )
    assert all(identical for _, _, identical, _, _ in timings)
    # The vectorized classifier must win on the largest space.
    *_, t_scalar, t_vector = timings[-1]
    assert t_vector < t_scalar
