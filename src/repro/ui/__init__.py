"""Text-mode QoS GUI (paper §8) and structure figures (Figures 1–2)."""

from .figures import document_model_figure, mm_profile_figure
from .widgets import button_row, choice_row, scale_bar
from .windows import (
    audio_profile_window,
    cost_profile_window,
    information_window,
    main_window,
    profile_component_window,
    video_profile_window,
)

__all__ = [
    "document_model_figure",
    "mm_profile_figure",
    "button_row",
    "choice_row",
    "scale_bar",
    "audio_profile_window",
    "cost_profile_window",
    "information_window",
    "main_window",
    "profile_component_window",
    "video_profile_window",
]
