"""Report rendering for experiments: the rows/series the paper's figures plot.

An :class:`ExperimentReport` is a figure/table in data form — id, title,
column headers, data rows, and free-form notes recording the paper's
reference numbers. The benchmark harness prints these, and
``EXPERIMENTS.md`` is generated from them.
"""

import dataclasses
from typing import List

from repro.utils.formatting import Cell, format_table


@dataclasses.dataclass(frozen=True)
class ExperimentReport:
    """One reproduced figure or table.

    Attributes:
        experiment_id: Paper reference ("fig8", "table1", ...).
        title: Human-readable title.
        headers: Column names.
        rows: Data rows (paper-shaped series).
        notes: Paper-vs-measured commentary.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Cell]]
    notes: List[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        """Render as an aligned monospace table with notes appended."""
        text = format_table(self.headers, self.rows,
                            title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return text

    def to_markdown(self) -> str:
        """Render as a GitHub-flavored markdown table."""
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            cells = [f"{c:.4g}" if isinstance(c, float) else str(c)
                     for c in row]
            lines.append("| " + " | ".join(cells) + " |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        return "\n".join(lines)
