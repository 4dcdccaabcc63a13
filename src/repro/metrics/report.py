"""Plain-text table/series rendering for benchmark output.

Every benchmark prints its reproduction of a paper artifact through
these helpers so the output reads like the paper's own tables: aligned
columns, a caption line, units spelled out.
"""

from __future__ import annotations

from typing import Any, Sequence


def render_table(
    caption: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> str:
    """An aligned plain-text table with a caption."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [caption, "=" * len(caption)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    caption: str,
    x_label: str,
    xs: Sequence[Any],
    columns: dict[str, Sequence[Any]],
    max_points: int = 24,
) -> str:
    """A downsampled multi-column series (Figure-style data)."""
    n = len(xs)
    if n == 0:
        return f"{caption}\n(empty series)"
    step = max(1, n // max_points)
    idx = list(range(0, n, step))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    headers = [x_label, *columns.keys()]
    rows = [[xs[i], *[col[i] for col in columns.values()]] for i in idx]
    return render_table(caption, headers, rows)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:,.2f}"
    if isinstance(value, int) and abs(value) >= 10000:
        return f"{value:,d}"
    return str(value)
