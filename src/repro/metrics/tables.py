"""Plain-text rendering of experiment results as tables and series.

The benchmark harness regenerates every figure and table of the paper as
text: a *series* is one line per x-value (a figure), a *table* is a grid
(Table 1).  Keeping the rendering here keeps the experiment code focused on
what to measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

Number = Union[int, float]


def format_number(value: Union[Number, str], precision: int = 2) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.{precision}f}"


def _trailer(notes: Sequence[str], facts: Mapping[str, Number]) -> List[str]:
    """The note and fact lines that close a rendered figure or table."""
    return [f"note: {note}" for note in notes] + [
        f"fact: {name} = {value}" for name, value in facts.items()
    ]


@dataclass
class Series:
    """One plotted line: a name and y-values indexed by x-values."""

    name: str
    points: Dict[Number, Number] = field(default_factory=dict)

    def add(self, x: Number, y: Number) -> None:
        self.points[x] = y

    def xs(self) -> List[Number]:
        return sorted(self.points)

    def ys(self) -> List[Number]:
        return [self.points[x] for x in self.xs()]


@dataclass
class FigureResult:
    """A reproduced figure: several series over a shared x-axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Named counters the experiment measured beside its series; gates read
    #: these, never a note.
    facts: Dict[str, Number] = field(default_factory=dict)

    def series_by_name(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"no series named {name!r} in {self.figure_id}")

    @property
    def rows(self) -> Dict[str, Dict[Number, Number]]:
        """The series as ``{name: {x: y}}`` — the shape of :attr:`TableResult.rows`."""
        return {series.name: series.points for series in self.series}

    def add_series(self, name: str) -> Series:
        series = Series(name=name)
        self.series.append(series)
        return series

    def to_dict(self) -> dict:
        """JSON-serialisable form (``repro.bench.run --json``)."""
        return {
            "kind": "figure",
            "id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": [
                {"name": series.name, "points": [[x, series.points[x]] for x in series.xs()]}
                for series in self.series
            ],
            "notes": list(self.notes),
            "facts": dict(self.facts),
        }

    def render(self) -> str:
        """Render the figure as an aligned text table (x column + one per series)."""
        xs: List[Number] = sorted({x for series in self.series for x in series.points})
        header = [self.x_label] + [series.name for series in self.series]
        rows: List[List[str]] = [header]
        for x in xs:
            row = [format_number(x)]
            for series in self.series:
                value = series.points.get(x)
                row.append("-" if value is None else format_number(value))
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [f"{self.figure_id}: {self.title}  (y = {self.y_label})"]
        for index, row in enumerate(rows):
            line = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            lines.append(line)
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines + _trailer(self.notes, self.facts))


@dataclass
class TableResult:
    """A reproduced table: named rows over named columns."""

    table_id: str
    title: str
    columns: Sequence[Number]
    rows: Dict[str, Dict[Number, Number]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    facts: Dict[str, Number] = field(default_factory=dict)

    def set(self, row: str, column: Number, value: Number) -> None:
        self.rows.setdefault(row, {})[column] = value

    def get(self, row: str, column: Number) -> Optional[Number]:
        return self.rows.get(row, {}).get(column)

    def to_dict(self) -> dict:
        """JSON-serialisable form (``repro.bench.run --json``)."""
        return {
            "kind": "table",
            "id": self.table_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": {
                name: [[column, cells[column]] for column in self.columns if column in cells]
                for name, cells in self.rows.items()
            },
            "notes": list(self.notes),
            "facts": dict(self.facts),
        }

    def render(self) -> str:
        header = [""] + [format_number(column) for column in self.columns]
        grid: List[List[str]] = [header]
        for row_name, cells in self.rows.items():
            row = [row_name]
            for column in self.columns:
                value = cells.get(column)
                row.append("-" if value is None else format_number(value))
            grid.append(row)
        widths = [max(len(row[i]) for row in grid) for i in range(len(header))]
        lines = [f"{self.table_id}: {self.title}"]
        for index, row in enumerate(grid):
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines + _trailer(self.notes, self.facts))


def render_mapping(title: str, mapping: Mapping[str, Number]) -> str:
    """Small helper for ad-hoc key/value result blocks."""
    width = max((len(key) for key in mapping), default=0)
    lines = [title]
    for key, value in mapping.items():
        lines.append(f"  {key.ljust(width)}  {format_number(value)}")
    return "\n".join(lines)
