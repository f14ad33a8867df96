"""Plain-text report formatting shared by benchmarks and examples."""

from __future__ import annotations

from typing import List, Sequence


def percent(value: float, decimals: int = 1) -> str:
    return f"{value:.{decimals}f}%"


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Format a simple fixed-width table for console output."""
    columns = len(headers)
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(str(headers[i])) for i in range(columns)]
    for row in str_rows:
        for i in range(min(columns, len(row))):
            widths[i] = max(widths[i], len(row[i]))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(headers[i]).ljust(widths[i]) for i in range(columns)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(min(columns, len(row)))))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
