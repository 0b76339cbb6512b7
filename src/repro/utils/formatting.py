"""Plain-text table formatting for experiment output.

The benchmark harness prints the same rows/series the paper's figures plot;
these helpers keep that output aligned and reproducible without pulling in
any plotting dependency.
"""

from typing import List, Sequence, Union

Cell = Union[str, int, float]


def format_row(cells: Sequence[Cell], widths: Sequence[int]) -> str:
    """Format one table row, right-aligning numbers and left-aligning text."""
    parts: List[str] = []
    for cell, width in zip(cells, widths):
        if isinstance(cell, float):
            text = f"{cell:.4g}"
            parts.append(text.rjust(width))
        elif isinstance(cell, int):
            parts.append(str(cell).rjust(width))
        else:
            parts.append(str(cell).ljust(width))
    return "  ".join(parts)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]], title: str = "") -> str:
    """Render *rows* under *headers* as an aligned monospace table.

    Column widths are derived from content; a separator line follows the
    header. Returns a single string (no trailing newline).
    """
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers), widths))
    lines.append("  ".join("-" * width for width in widths))
    for original in rows:
        lines.append(format_row(list(original), widths))
    return "\n".join(lines)


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
