"""Plain-text rendering helpers for experiment outputs."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate of choice)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned text table (the CLI's stdout format)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_dict_rows(rows: Sequence[dict], title: str | None = None) -> str:
    """Render a list of homogeneous dicts as a table."""
    if not rows:
        return title or "(no rows)"
    headers = list(rows[0].keys())
    return render_table(headers, [[r[h] for h in headers] for r in rows],
                        title=title)
