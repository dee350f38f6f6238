"""The QoS GUI windows (paper §8, Figures 3–7) rendered as text.

Each function renders one window of the original Motif GUI from live
objects; the window inventory and contents follow §8:

* **main window** (Fig. 3/4) — select / edit / delete a user profile,
  set the default, OK to start negotiation, EXIT;
* **profile component window** (Fig. 5) — the monomedia/time/cost
  profiles of one user profile, with the constraint buttons of
  unsatisfiable profiles shown active (red) after a failed negotiation;
* **per-medium profile windows** (Fig. 6) — scaling bars with desired,
  worst-acceptable and (after negotiation) offered values;
* **information window** (Fig. 7) — the negotiation status, and on
  success the offered QoS parameter values and cost, waiting for OK
  within ``choicePeriod``.
"""

from __future__ import annotations

from ..core.negotiation import NegotiationResult
from ..core.profile_manager import ProfileManager
from ..core.profiles import MMProfile, UserProfile
from ..documents.media import (
    ColorMode,
    FROZEN_FRAME_RATE,
    HDTV_FRAME_RATE,
    HDTV_RESOLUTION,
    Medium,
    MIN_RESOLUTION,
)
from ..documents.quality import AudioQoS, ImageQoS, TextQoS, VideoQoS
from ..util.tables import render_box
from .widgets import button_row, choice_row, scale_bar

__all__ = [
    "main_window",
    "profile_component_window",
    "video_profile_window",
    "audio_profile_window",
    "cost_profile_window",
    "information_window",
]


def main_window(manager: ProfileManager) -> str:
    """Figure 3/4: the profile list with the GUI's command buttons."""
    lines = ["User profiles:"]
    for name in manager.names():
        marker = "*" if name == manager.default_name else " "
        lines.append(f"  {marker} {name}")
    lines.append("")
    lines.append(button_row("OK", "Edit", "Delete", "Set default", "EXIT"))
    return render_box(lines, title="QoS GUI", width=52)


def _qos_lines(bound_desired, bound_worst, offered=None) -> "list[str]":
    lines: list[str] = []
    if isinstance(bound_desired, VideoQoS):
        worst = bound_worst
        offer = offered if isinstance(offered, VideoQoS) else None
        lines.append(
            choice_row(
                "color",
                [str(mode) for mode in ColorMode],
                str(bound_desired.color),
            )
        )
        lines.append(
            scale_bar(
                "frame rate", FROZEN_FRAME_RATE, HDTV_FRAME_RATE,
                desired=bound_desired.frame_rate,
                worst=worst.frame_rate if worst else None,
                offer=offer.frame_rate if offer else None,
                unit="f/s",
            )
        )
        lines.append(
            scale_bar(
                "resolution", MIN_RESOLUTION, HDTV_RESOLUTION,
                desired=bound_desired.resolution,
                worst=worst.resolution if worst else None,
                offer=offer.resolution if offer else None,
                unit="px",
            )
        )
    elif isinstance(bound_desired, AudioQoS):
        lines.append(
            choice_row(
                "quality", ["telephone", "radio", "cd"],
                str(bound_desired.grade),
            )
        )
        lines.append(
            choice_row("language",
                       ["english", "french", "german", "spanish"],
                       str(bound_desired.language))
        )
        if isinstance(offered, AudioQoS):
            lines.append(f"offered      {offered}")
    elif isinstance(bound_desired, (ImageQoS,)):
        lines.append(
            choice_row(
                "color", [str(mode) for mode in ColorMode],
                str(bound_desired.color),
            )
        )
        lines.append(
            scale_bar(
                "resolution", MIN_RESOLUTION, HDTV_RESOLUTION,
                desired=bound_desired.resolution,
                worst=bound_worst.resolution if bound_worst else None,
                offer=offered.resolution if isinstance(offered, ImageQoS) else None,
                unit="px",
            )
        )
    elif isinstance(bound_desired, TextQoS):
        lines.append(
            choice_row("language",
                       ["english", "french", "german", "spanish"],
                       str(bound_desired.language))
        )
        if isinstance(offered, TextQoS):
            lines.append(f"offered      {offered}")
    return lines


def profile_component_window(
    profile: UserProfile,
    *,
    violated_media: "set[Medium] | None" = None,
) -> str:
    """Figure 5: the component list; violated constraints marked red (!)."""
    violated_media = violated_media or set()
    active = {medium.value for medium in violated_media}
    lines = [f"Profile: {profile.name}", ""]
    component_buttons = [m.value for m in profile.media()] + ["time", "cost"]
    lines.append(button_row(*component_buttons, active=active))
    lines.append("")
    lines.append(f"max cost: {profile.max_cost}")
    lines.append(
        f"delivery deadline: {profile.desired.time.delivery_deadline_s:g} s, "
        f"choice period: {profile.desired.time.choice_period_s:g} s"
    )
    lines.append("")
    lines.append(button_row("Save", "Save as", "CANCEL"))
    return render_box(lines, title="Profile components", width=60)


def video_profile_window(
    profile: UserProfile, offer: "MMProfile | None" = None
) -> str:
    """Figure 6: the video profile editor with offer bars."""
    desired = profile.desired.video
    worst = profile.worst.video
    offered = offer.video if offer is not None else None
    if desired is None:
        lines = ["(no video constraints in this profile)"]
    else:
        lines = _qos_lines(desired, worst, offered)
    lines.append("")
    lines.append(button_row("OK", "Save", "Save as", "show example", "CANCEL"))
    return render_box(lines, title="Video profile", width=66)


def audio_profile_window(
    profile: UserProfile, offer: "MMProfile | None" = None
) -> str:
    """The audio sibling of Figure 6."""
    desired = profile.desired.audio
    worst = profile.worst.audio
    offered = offer.audio if offer is not None else None
    if desired is None:
        lines = ["(no audio constraints in this profile)"]
    else:
        lines = _qos_lines(desired, worst, offered)
    lines.append("")
    lines.append(button_row("OK", "Save", "Save as", "show example", "CANCEL"))
    return render_box(lines, title="Audio profile", width=66)


def cost_profile_window(profile: UserProfile) -> str:
    """The cost profile editor."""
    importance = profile.importance
    cost_weight = getattr(importance, "cost_per_dollar", 0.0)
    lines = [
        scale_bar("max cost", 0, 20, desired=profile.max_cost.amount, unit="$"),
        scale_bar("importance", 0, 10, desired=cost_weight),
        "",
        button_row("OK", "Save", "Save as", "CANCEL"),
    ]
    return render_box(lines, title="Cost profile", width=66)


def information_window(result: NegotiationResult) -> str:
    """Figure 7: the negotiation outcome presented to the user."""
    lines = [f"negotiation status: {result.status}"]
    if result.user_offer is not None:
        lines.append("")
        for medium, qos in result.user_offer.qos_points():
            lines.append(f"  {medium.value:<8} {qos}")
        lines.append(f"  {'cost':<8} {result.user_offer.cost}")
    if result.status.reserves_resources:
        period = (
            result.commitment.choice_period_s
            if result.commitment is not None else None
        )
        lines.append("")
        lines.append(
            f"press OK within {period:g} s to start the delivery"
            if period is not None
            else "press OK to start the delivery"
        )
        lines.append("")
        lines.append(button_row("OK", "CANCEL"))
    else:
        lines.append("")
        lines.append(button_row("OK"))
    return render_box(lines, title="Information", width=60)
