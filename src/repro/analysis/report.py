"""Plain-text table rendering for benchmark and CLI output.

Kept dependency-free on purpose: the benchmark harness prints these tables to
stdout so the paper's tables can be regenerated with nothing but the standard
library installed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dictionaries as an aligned plain-text table.

    Args:
        rows: one mapping per row; missing keys render as empty cells.
        columns: column order; defaults to the keys of the first row.
        title: optional title printed above the table.

    Returns:
        A multi-line string (no trailing newline).
    """
    if not rows:
        return title or "(no rows)"
    column_names = list(columns) if columns is not None else list(rows[0].keys())
    rendered_rows = [
        {name: _render_cell(row.get(name, "")) for name in column_names} for row in rows
    ]
    widths = {
        name: max(len(name), *(len(row[name]) for row in rendered_rows))
        for name in column_names
    }
    header = " | ".join(name.ljust(widths[name]) for name in column_names)
    separator = "-+-".join("-" * widths[name] for name in column_names)
    body = [
        " | ".join(row[name].ljust(widths[name]) for name in column_names)
        for row in rendered_rows
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(header)
    lines.append(separator)
    lines.extend(body)
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Iterable[float]],
    *,
    x_label: str,
    x_values: Sequence[object],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render several named series against a shared x-axis as a table.

    Used for the figure-style outputs (message count vs N, etc.).
    """
    rows: List[Dict[str, object]] = []
    materialised = {name: list(values) for name, values in series.items()}
    for index, x_value in enumerate(x_values):
        row: Dict[str, object] = {x_label: x_value}
        for name, values in materialised.items():
            row[name] = round(values[index], precision) if index < len(values) else ""
        rows.append(row)
    return format_table(rows, columns=[x_label, *materialised.keys()], title=title)


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
