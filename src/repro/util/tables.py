"""ASCII table rendering.

The benchmark harness prints the paper's tables (offer classifications,
cost decompositions, blocking-probability sweeps) as plain-text tables;
the text-mode QoS GUI reuses the same renderer for its windows.  Only the
standard library is used so table output is available everywhere.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .errors import ValidationError

__all__ = ["render_table", "render_box"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        # Trim trailing float noise but keep small magnitudes readable.
        text = f"{value:.4f}".rstrip("0").rstrip(".")
        return text if text not in ("", "-") else "0"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a boxed ASCII table;
    numeric-looking columns align right, the rest left."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    headers = [str(h) for h in headers]
    ncols = len(headers)
    for row in str_rows:
        if len(row) != ncols:
            raise ValidationError(
                f"row has {len(row)} cells, expected {ncols}: {row!r}"
            )

    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    align = []
    for i in range(ncols):
        column = [row[i] for row in str_rows]
        numeric = column and all(
            c.replace(".", "", 1).replace("-", "", 1).replace("%", "", 1).isdigit()
            or c in ("", "-")
            for c in column
        )
        align.append("r" if numeric else "l")

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for cell, width, a in zip(cells, widths, align):
            parts.append(cell.rjust(width) if a == "r" else cell.ljust(width))
        return "| " + " | ".join(parts) + " |"

    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(fmt_row(headers))
    lines.append(sep)
    for row in str_rows:
        lines.append(fmt_row(row))
    lines.append(sep)
    return "\n".join(lines)


def render_box(lines: Iterable[str], *, title: str | None = None, width: int | None = None) -> str:
    """Draw a bordered box around ``lines`` — the building block of the
    text-mode QoS GUI windows (Figures 3–7 of the paper)."""
    body = [str(line) for line in lines]
    inner = max(
        [len(line) for line in body] + [len(title or "") + 2, width or 0]
    )
    top = "+-" + (f" {title} " if title else "").center(inner, "-") + "-+"
    out = [top]
    for line in body:
        out.append(f"| {line.ljust(inner)} |")
    out.append("+-" + "-" * inner + "-+")
    return "\n".join(out)
