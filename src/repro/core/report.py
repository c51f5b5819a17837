"""ASCII rendering for the analysis harness.

The benchmarks print the same rows/series the paper's figures plot;
these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "",
          floatfmt: str = "{:.2f}") -> str:
    """Render a simple fixed-width table."""
    if not headers:
        raise ValueError("table needs headers")
    def fmt(cell):
        if isinstance(cell, float):
            return floatfmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def series(x_label: str, xs: Sequence, columns: Mapping[str, Sequence[Optional[float]]],
           title: str = "", floatfmt: str = "{:.2f}",
           missing: str = "-") -> str:
    """Render sweep results: one x column plus one column per series.

    ``None`` entries (unsupported configurations, e.g. cuda-convnet2
    off its shape grid) print as ``missing`` — the "dots" of
    Fig. 3(c).
    """
    headers = [x_label] + list(columns)
    rows = []
    for i, x in enumerate(xs):
        row = [x]
        for name in columns:
            v = columns[name][i]
            row.append(missing if v is None else floatfmt.format(v))
        rows.append(row)
    return table(headers, rows, title=title, floatfmt=floatfmt)


def bar_breakdown(shares: Mapping[str, float], width: int = 40,
                  title: str = "") -> str:
    """Render a share dict (values summing to ~1) as labelled bars —
    the stacked bars of Figs. 2 and 4 in text form."""
    lines = [title] if title else []
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        n = max(int(round(share * width)), 0)
        lines.append(f"{name:>28s} {share * 100:6.2f}% |{'#' * n}")
    return "\n".join(lines)


def ascii_plot(xs: Sequence[float], columns: Mapping[str, Sequence[Optional[float]]],
               width: int = 64, height: int = 16, title: str = "",
               logy: bool = False) -> str:
    """Render sweep series as an ASCII line chart.

    Each series is drawn with its own marker letter; ``None`` points
    (unsupported configurations) are simply absent — the textual
    equivalent of the dots and gaps in the paper's figures.
    """
    import math as _math

    if width < 8 or height < 4:
        raise ValueError("plot too small")
    values = [v for col in columns.values() for v in col if v is not None]
    if not values or len(xs) < 2:
        raise ValueError("nothing to plot")

    def ty(v: float) -> float:
        return _math.log10(v) if logy else v

    lo = min(ty(v) for v in values if not logy or v > 0)
    hi = max(ty(v) for v in values if not logy or v > 0)
    span = (hi - lo) or 1.0
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = "abcdefghijklmnop"
    legend = []
    for mi, (name, col) in enumerate(columns.items()):
        mark = markers[mi % len(markers)]
        legend.append(f"{mark}={name}")
        for x, v in zip(xs, col):
            if v is None or (logy and v <= 0):
                continue
            cx = int(round((x - x_lo) / x_span * (width - 1)))
            cy = int(round((ty(v) - lo) / span * (height - 1)))
            grid[height - 1 - cy][cx] = mark

    top = f"{(10 ** hi if logy else hi):.4g}"
    bottom = f"{(10 ** lo if logy else lo):.4g}"
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        label = top if r == 0 else (bottom if r == height - 1 else "")
        lines.append(f"{label:>10s} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(f"{'':11s}{x_lo:<10g}{'':^{max(width - 20, 1)}}{x_hi:>8g}")
    lines.append("  " + "  ".join(legend))
    return "\n".join(lines)
