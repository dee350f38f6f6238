"""Text-mode widgets for the QoS GUI windows.

The original GUI (AIC/Motif, §8) used scaling bars and predefined-value
selectors; these render as plain text: a scale bar marks the worst
acceptable value, the desired value, and optionally the offered value on
one line, so the §8 behaviour ("the offer provided by the system is also
displayed for each QoS parameter on the offer scaling bar") is visible
in a terminal.
"""

from __future__ import annotations

from ..util.errors import ValidationError

__all__ = ["scale_bar", "button_row", "choice_row"]

_BAR_WIDTH = 40  # cells between the brackets


def scale_bar(
    label: str,
    lo: float,
    hi: float,
    *,
    desired: "float | None" = None,
    worst: "float | None" = None,
    offer: "float | None" = None,
    unit: str = "",
) -> str:
    """One scaling bar with markers: ``w`` worst, ``d`` desired, ``o``
    offer (``*`` where two coincide)."""
    if hi <= lo:
        raise ValidationError(f"scale needs hi > lo, got [{lo}, {hi}]")
    cells = [" "] * _BAR_WIDTH

    def pos(value: float) -> int:
        clamped = min(max(value, lo), hi)
        return min(
            int((clamped - lo) / (hi - lo) * (_BAR_WIDTH - 1)), _BAR_WIDTH - 1
        )

    markers = []
    if worst is not None:
        markers.append((pos(worst), "w"))
    if desired is not None:
        markers.append((pos(desired), "d"))
    if offer is not None:
        markers.append((pos(offer), "o"))
    for index, mark in markers:
        cells[index] = "*" if cells[index] != " " else mark
    bar = "".join(cells)
    values = []
    if worst is not None:
        values.append(f"w={worst:g}{unit}")
    if desired is not None:
        values.append(f"d={desired:g}{unit}")
    if offer is not None:
        values.append(f"o={offer:g}{unit}")
    return f"{label:<12} [{bar}] {' '.join(values)}"


def button_row(*labels: str, active: "set[str] | None" = None) -> str:
    """A row of GUI buttons; active (red, §8) buttons are marked ``!``."""
    active = active or set()
    rendered = []
    for label in labels:
        mark = "!" if label in active else " "
        rendered.append(f"[{mark}{label}{mark}]")
    return "  ".join(rendered)


def choice_row(label: str, choices: "list[str]", selected: str) -> str:
    """A predefined-values selector with the current choice bracketed."""
    rendered = [
        f"<{choice}>" if choice == selected else f" {choice} "
        for choice in choices
    ]
    return f"{label:<12} " + " ".join(rendered)
