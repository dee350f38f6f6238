"""The paper's worked examples as data (§5.1–§5.2.2).

This module encodes, verbatim, the offers, profiles and importance
settings of the paper's classification examples, together with the
results the paper prints.  The E1–E4 benchmarks and the regression tests
both read from here, so the reproduction target lives in exactly one
place.

§5.2.1 example:
  user asks (color, TV resolution, 25 frames/s), desired = worst,
  maximum cost 4 $; the QoS manager produces:

  - offer1: (black&white, TV resolution, 25 frames/s) at 2.5 $
  - offer2: (color, TV resolution, 15 frames/s) at 4 $
  - offer3: (grey, TV resolution, 25 frames/s) at 3 $
  - offer4: (color, TV resolution, 25 frames/s) at 5 $

  SNS: offer1 CONSTRAINT, offer2 CONSTRAINT, offer3 CONSTRAINT,
  offer4 ACCEPTABLE.

§5.2.2 settings (importance factors):
  (1) color 9, grey 6, b&w 2, TV res 9, 25 f/s 9, 15 f/s 5, cost 4
      → OIF: offer1 10, offer2 7, offer3 12, offer4 7
      → classification: offer4, offer3, offer1, offer2
  (2) same but cost importance 0
      → OIF: offer1 20, offer2 23, offer3 24, offer4 27
      → classification: offer4, offer3, offer2, offer1
  (3) all QoS importances 0, cost importance 4
      → OIF: offer1 −10, offer2 −16, offer3 −12, offer4 −20
      → classification printed by the paper: offer1, offer3, offer2,
        offer4 — the *pure-OIF* order (see DESIGN.md on the SNS-primary
        discrepancy).
"""

from __future__ import annotations

from .core.importance import ImportanceProfile, ScaleImportance
from .core.offers import SystemOffer
from .core.profiles import MMProfile, UserProfile
from .documents.media import (
    AudioGrade,
    Codecs,
    ColorMode,
    FROZEN_FRAME_RATE,
    HDTV_FRAME_RATE,
    HDTV_RESOLUTION,
    Language,
    MIN_RESOLUTION,
    TV_RESOLUTION,
)
from .documents.monomedia import BlockStats, Variant
from .documents.quality import VideoQoS
from .util.units import dollars

__all__ = [
    "MONOMEDIA_ID",
    "section_521_profile",
    "section_5_offers",
    "importance_setting_1",
    "importance_setting_2",
    "importance_setting_3",
    "EXPECTED_SNS",
    "EXPECTED_OIF_SETTING_1",
    "EXPECTED_OIF_SETTING_2",
    "EXPECTED_OIF_SETTING_3",
    "EXPECTED_ORDER_SETTING_1",
    "EXPECTED_ORDER_SETTING_2",
    "EXPECTED_ORDER_SETTING_3",
]

MONOMEDIA_ID = "news-article.video"

# (offer name, colour, frame rate, cost $) — resolution is TV throughout.
_OFFER_TABLE = (
    ("offer1", ColorMode.BLACK_AND_WHITE, 25, 2.5),
    ("offer2", ColorMode.COLOR, 15, 4.0),
    ("offer3", ColorMode.GREY, 25, 3.0),
    ("offer4", ColorMode.COLOR, 25, 5.0),
)

EXPECTED_SNS = {
    "offer1": "CONSTRAINT",
    "offer2": "CONSTRAINT",
    "offer3": "CONSTRAINT",
    "offer4": "ACCEPTABLE",
}

EXPECTED_OIF_SETTING_1 = {"offer1": 10.0, "offer2": 7.0, "offer3": 12.0, "offer4": 7.0}
EXPECTED_OIF_SETTING_2 = {"offer1": 20.0, "offer2": 23.0, "offer3": 24.0, "offer4": 27.0}
EXPECTED_OIF_SETTING_3 = {"offer1": -10.0, "offer2": -16.0, "offer3": -12.0, "offer4": -20.0}

EXPECTED_ORDER_SETTING_1 = ("offer4", "offer3", "offer1", "offer2")
EXPECTED_ORDER_SETTING_2 = ("offer4", "offer3", "offer2", "offer1")
EXPECTED_ORDER_SETTING_3 = ("offer1", "offer3", "offer2", "offer4")


def section_521_profile(importance: ImportanceProfile | None = None) -> UserProfile:
    """§5.2.1: '(color, TV resolution, 25 frames/s) as desired QoS and as
    the worst acceptable QoS, and 4 $ as the maximum cost to pay'."""
    requested = VideoQoS(
        color=ColorMode.COLOR, frame_rate=25, resolution=TV_RESOLUTION
    )
    return UserProfile(
        name="sec-5.2.1",
        desired=MMProfile(video=requested, cost=dollars(4)),
        worst=MMProfile(video=requested, cost=dollars(4)),
        importance=importance or importance_setting_1(),
    )


def _variant(name: str, color: ColorMode, frame_rate: int) -> Variant:
    qos = VideoQoS(color=color, frame_rate=frame_rate, resolution=TV_RESOLUTION)
    return Variant(
        variant_id=f"{MONOMEDIA_ID}.{name}",
        monomedia_id=MONOMEDIA_ID,
        codec=Codecs.MPEG1,
        qos=qos,
        size_bits=1e9,
        block_stats=BlockStats(
            max_block_bits=3e5, avg_block_bits=1e5,
            blocks_per_second=float(frame_rate),
        ),
        server_id="server-a",
        duration_s=120.0,
    )


def section_5_offers() -> list[SystemOffer]:
    """The four §5 offers with the paper's printed costs."""
    offers = []
    for name, color, frame_rate, cost in _OFFER_TABLE:
        variant = _variant(name, color, frame_rate)
        offers.append(
            SystemOffer(
                offer_id=name,
                variants={MONOMEDIA_ID: variant},
                presented={MONOMEDIA_ID: variant.qos},
                cost=dollars(cost),
            )
        )
    return offers


def _example_importance(cost_per_dollar: float, *, zero_qos: bool = False) -> ImportanceProfile:
    """Shared construction of the §5.2.2 importance settings."""
    if zero_qos:
        color = {mode: 0.0 for mode in ColorMode}
        frame_rate = ScaleImportance(
            anchors={float(FROZEN_FRAME_RATE): 0.0, float(HDTV_FRAME_RATE): 0.0}
        )
        resolution = ScaleImportance(
            anchors={float(MIN_RESOLUTION): 0.0, float(HDTV_RESOLUTION): 0.0}
        )
    else:
        color = {
            ColorMode.SUPER_COLOR: 10.0,
            ColorMode.COLOR: 9.0,
            ColorMode.GREY: 6.0,
            ColorMode.BLACK_AND_WHITE: 2.0,
        }
        frame_rate = ScaleImportance(
            anchors={
                float(FROZEN_FRAME_RATE): 1.0,
                25.0: 9.0,
                float(HDTV_FRAME_RATE): 10.0,
            },
            overrides={15.0: 5.0},  # stated directly in the example
        )
        resolution = ScaleImportance(
            anchors={
                float(MIN_RESOLUTION): 1.0,
                float(TV_RESOLUTION): 9.0,
                float(HDTV_RESOLUTION): 10.0,
            }
        )
    return ImportanceProfile(
        color=color,
        frame_rate=frame_rate,
        resolution=resolution,
        audio_grade={
            AudioGrade.CD: 0.0,
            AudioGrade.RADIO: 0.0,
            AudioGrade.TELEPHONE: 0.0,
        },
        language={Language.NONE: 0.0},
        media_weight={},
        cost_per_dollar=cost_per_dollar,
    )


def importance_setting_1() -> ImportanceProfile:
    """§5.2.2 (1): QoS importances as stated, cost importance 4."""
    return _example_importance(4.0)


def importance_setting_2() -> ImportanceProfile:
    """§5.2.2 (2): QoS importances as stated, cost importance 0."""
    return _example_importance(0.0)


def importance_setting_3() -> ImportanceProfile:
    """§5.2.2 (3): all QoS importances 0, cost importance 4."""
    return _example_importance(4.0, zero_qos=True)
