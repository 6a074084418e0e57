"""Plain-text table rendering for the experiment harness.

Experiments print their rows in the same aligned ASCII format so the
console output of ``python -m repro.experiments <id>`` reads like the
tables of its ``--markdown`` output.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AnalysisError


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    Cells are stringified with ``str``; floats should be pre-formatted by
    the caller so each experiment controls its own precision.
    """
    if not headers:
        raise AnalysisError("table needs at least one column")
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)
