"""Text rendering of experiment outputs.

The figure functions in :mod:`repro.experiments.figures` return plain
data (row lists, CDF dicts, numpy series).  This module renders any of
those shapes as aligned text tables and compact ASCII CDF summaries — the
same artifact the benchmarks print, reusable from the CLI and scripts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def format_table(rows: Sequence[Dict], columns: Sequence[str],
                 title: str = "") -> str:
    """Align a list of row dictionaries into a text table."""
    lines: List[str] = []
    if title:
        lines.append(f"=== {title} ===")
    header = " | ".join(f"{c:>14s}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:14.4g}")
            else:
                cells.append(f"{str(value):>14s}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def summarize_cdf(cdf: Dict[str, np.ndarray]) -> str:
    """One-line percentile summary of a CDF dict ({"x": ..., "y": ...})."""
    x = np.asarray(cdf["x"], dtype=float)
    if len(x) == 0:
        return "(empty)"
    p = np.percentile
    return (
        f"p10={p(x, 10):.4g} p50={p(x, 50):.4g} "
        f"p90={p(x, 90):.4g} max={x.max():.4g} (n={len(x)})"
    )


def _is_cdf(value) -> bool:
    return isinstance(value, dict) and set(value) == {"x", "y"}


def render(name: str, result) -> str:
    """Render a figure-function output (a row list or a dict) by
    structural dispatch."""
    lines: List[str] = [f"### {name} ###"]

    if isinstance(result, list) and result and isinstance(result[0], dict):
        columns = list(result[0].keys())
        lines.append(format_table(result, columns))
        return "\n".join(lines)

    # {"rows": [...], "cdfs": {...}} composites.
    if "rows" in result:
        rows = result["rows"]
        if rows:
            lines.append(format_table(rows, list(rows[0].keys())))
        for label, cdf in result.get("cdfs", {}).items():
            lines.append(f"{label}: {summarize_cdf(cdf)}")
        return "\n".join(lines)
    # Nested dicts of CDFs / scalars / arrays.
    for key, value in result.items():
        if _is_cdf(value):
            lines.append(f"{key}: {summarize_cdf(value)}")
        elif isinstance(value, dict):
            parts = []
            for sub_key, sub_value in value.items():
                if _is_cdf(sub_value):
                    parts.append(f"    {sub_key}: {summarize_cdf(sub_value)}")
                elif isinstance(sub_value, (int, float)):
                    parts.append(f"    {sub_key}: {sub_value:.4g}")
                elif isinstance(sub_value, np.ndarray):
                    parts.append(
                        f"    {sub_key}: mean={sub_value.mean():.4g} "
                        f"(n={len(sub_value)})"
                    )
            lines.append(f"{key}:")
            lines.extend(parts)
        elif isinstance(value, np.ndarray):
            lines.append(
                f"{key}: mean={value.mean():.4g} "
                f"min={value.min():.4g} max={value.max():.4g}"
            )
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)
