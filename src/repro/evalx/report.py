"""Plain-text rendering of the reproduction's tables and figures.

Every benchmark prints through this module so that the harness output is
self-contained: Table-I rows as aligned columns, scatter plots as coarse
log-log ASCII grids (bullets above the diagonal = QUBE(PO) wins, as in
Figures 3-5/7), and scaling studies as per-size series (Figure 6).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.evalx.scatter import ScalingSeries, ScatterPoint, summarize_scatter


def render_scatter(
    points: Sequence[ScatterPoint],
    width: int = 44,
    height: int = 18,
    title: str = "",
) -> str:
    """Log-log ASCII scatter: x = QUBE(PO) cost, y = QUBE(TO) cost.

    '*' marks bullets, '/' the diagonal; bullets above the diagonal are
    instances where QUBE(PO) beats QUBE(TO).
    """
    if not points:
        return "(no points)"
    lo = min(min(p.po_cost, p.to_cost) for p in points)
    hi = max(max(p.po_cost, p.to_cost) for p in points)
    lo = max(lo, 1.0)
    hi = max(hi, lo * 1.01)

    def scale(v: float, extent: int) -> int:
        frac = (math.log(max(v, 1.0)) - math.log(lo)) / (math.log(hi) - math.log(lo))
        return min(extent - 1, max(0, int(round(frac * (extent - 1)))))

    grid = [[" "] * width for _ in range(height)]
    for i in range(min(width, height)):
        grid[height - 1 - scale(lo * (hi / lo) ** (i / (width - 1)), height)][i] = "/"
    for p in points:
        x = scale(p.po_cost, width)
        y = scale(p.to_cost, height)
        grid[height - 1 - y][x] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append("TO cost ^  (log scale, range %.0f..%.0f decisions)" % (lo, hi))
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width + "> PO cost")
    stats = summarize_scatter(points)
    lines.append(
        "points=%d  PO-wins=%d  TO-wins=%d  ties=%d  TO/PO geomean=%.2fx  "
        "TO-timeouts=%d  PO-timeouts=%d"
        % (
            stats["points"],
            stats["po_wins"],
            stats["to_wins"],
            stats["ties"],
            stats["geomean_to_over_po"],
            stats["to_timeouts"],
            stats["po_timeouts"],
        )
    )
    return "\n".join(lines)


def render_scaling(series_list: Sequence[ScalingSeries], title: str = "") -> str:
    """Figure-6 style text rendering: one line per model size."""
    lines = []
    if title:
        lines.append(title)
    for series in series_list:
        cells = []
        for n, cost, timed_out in series.points:
            cells.append("n=%d:%s" % (n, "TIMEOUT" if timed_out else str(cost)))
        largest = series.largest_solved
        suffix = " (largest solved length: %s)" % (largest if largest is not None else "none")
        lines.append("%-14s %s%s" % (series.model_name, "  ".join(cells), suffix))
    return "\n".join(lines)


def render_kv(title: str, mapping: Dict[str, object]) -> str:
    lines = [title]
    for key in sorted(mapping):
        lines.append("  %-28s %s" % (key, mapping[key]))
    return "\n".join(lines)
