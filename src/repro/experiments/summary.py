"""Markdown summary writer for experiment reports.

Turns a list of :class:`~repro.experiments.base.ExperimentReport` objects
into a Markdown document (tables + metrics), so the paper-vs-measured
record can be regenerated mechanically from a full run::

    python -m repro.experiments all --scale full --markdown out.md
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.experiments.base import ExperimentReport


def _markdown_table(headers: list[str], rows: list[list[object]]) -> str:
    if not headers:
        raise AnalysisError("markdown table needs at least one column")
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise AnalysisError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def report_to_markdown(report: ExperimentReport) -> str:
    """One experiment as a Markdown section."""
    parts = [
        f"## {report.exp_id} — {report.title}",
        "",
        f"**Claim.** {report.claim}",
        "",
        _markdown_table(report.headers, report.rows),
    ]
    if report.metrics:
        parts.append("")
        parts.append(
            "**Metrics.** "
            + ", ".join(
                f"`{k}` = {v}" for k, v in sorted(report.metrics.items())
            )
        )
    for note in report.notes:
        parts.append("")
        parts.append(f"*Note.* {note}")
    return "\n".join(parts)


def reports_to_markdown(
    reports: list[ExperimentReport],
    title: str = "Experiment results",
    preamble: str = "",
) -> str:
    """A full Markdown document from a list of reports."""
    if not reports:
        raise AnalysisError("no reports to summarize")
    parts = [f"# {title}"]
    if preamble:
        parts.append("")
        parts.append(preamble)
    for report in reports:
        parts.append("")
        parts.append(report_to_markdown(report))
    parts.append("")
    return "\n".join(parts)
