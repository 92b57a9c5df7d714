"""Result rows and the shared merge shapes of the scenario layer.

:class:`ExperimentResult` is the canonical row container every scenario
produces (and the CLI renders); :func:`merge_approach_cells` is the shared
one-column-per-approach merge of Figures 2/3/4/6 and the beyond-paper
sweeps.  This module sits below both the scenario modules and the runner so
all layers can share it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cells import CellResult


@dataclass
class ExperimentResult:
    """Rows of one table / figure."""

    experiment: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_table(self) -> str:
        """Render the rows as an aligned text table (what the CLI prints).

        Experiments that produced no rows (or only empty rows, i.e. an empty
        :meth:`columns`) render as an explicit "(no rows)" stub instead of
        crashing the table printer or the JSON dump.
        """
        cols = self.columns()
        if not cols:
            return f"# {self.experiment}: {self.description}\n(no rows)"
        widths = {c: len(c) for c in cols}
        rendered: List[List[str]] = []
        for row in self.rows:
            cells = []
            for c in cols:
                value = row.get(c, "")
                if isinstance(value, float):
                    text = f"{value:.2f}"
                elif isinstance(value, int) and abs(value) >= 10_000:
                    text = f"{value / 1e6:.1f} MB"
                else:
                    text = str(value)
                widths[c] = max(widths[c], len(text))
                cells.append(text)
            rendered.append(cells)
        header = "  ".join(c.ljust(widths[c]) for c in cols)
        sep = "  ".join("-" * widths[c] for c in cols)
        lines = [f"# {self.experiment}: {self.description}", header, sep]
        lines += [
            "  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, cols))
            for cells in rendered
        ]
        return "\n".join(lines)


def merge_approach_cells(
    experiment: str,
    description: str,
    results: Sequence["CellResult"],
    row_key: Callable[[Dict[str, Any]], Dict[str, Any]],
    value: Callable[[Dict[str, Any]], Any],
) -> ExperimentResult:
    """Group executed cells into rows, one column per approach.

    The shared merge shape of Figures 2/3/4/6: walking cells in canonical
    enumeration order, every distinct ``row_key(payload)`` dict opens a new
    row (its entries become the leading columns) and each cell contributes
    ``value(payload)`` under its approach label.  Subsets selected via
    ``--cells`` simply produce rows/columns for the cells that ran.
    """
    result = ExperimentResult(experiment=experiment, description=description)
    rows: Dict[tuple, Dict[str, Any]] = {}
    for cell in results:
        payload = cell.payload
        head = row_key(payload)
        key = tuple(head.values())
        row = rows.get(key)
        if row is None:
            row = dict(head)
            rows[key] = row
            result.rows.append(row)
        row[payload["approach"]] = value(payload)
    return result
