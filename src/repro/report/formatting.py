"""Rendering helpers for the benchmark reports.

Formats numbers the way the paper typesets them (thin-space thousands
groups: ``3 040 325 302``), percentages with sensible precision, and
plain-text tables with aligned columns.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def fmt_int(value: int) -> str:
    """Group thousands with spaces, as the paper does.

    >>> fmt_int(3040325302)
    '3 040 325 302'
    """
    return f"{value:,}".replace(",", " ")


def fmt_pct(fraction: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string.

    >>> fmt_pct(0.284)
    '28.4 %'
    """
    return f"{fraction * 100:.{digits}f} %"


def fmt_permille(fraction: float) -> str:
    """Render a fraction in permille (the paper's hit-rate unit), to two
    decimals."""
    return f"{fraction * 1000:.2f} ‰"


def fmt_float(value: float, digits: int = 1) -> str:
    return f"{value:.{digits}f}"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table.

    Cells are stringified; numeric-looking cells right-align, text
    left-aligns.  Intended for the bench harness's stdout reports.
    """
    materialized: List[List[str]] = [[str(cell) for cell in row]
                                     for row in rows]
    columns = len(headers)
    for row in materialized:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row!r}"
            )
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def is_numeric(text: str) -> bool:
        stripped = text.replace(" ", "").replace("%", "").replace("‰", "")
        stripped = stripped.replace(".", "").replace("-", "").replace("x", "")
        return stripped.isdigit() if stripped else False

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if is_numeric(cell):
                parts.append(cell.rjust(widths[index]))
            else:
                parts.append(cell.ljust(widths[index]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


def shape_check(name: str, condition: bool) -> str:
    """One-line pass/fail marker for paper-shape assertions in benches."""
    marker = "OK " if condition else "DIVERGES"
    return f"[{marker}] {name}"
