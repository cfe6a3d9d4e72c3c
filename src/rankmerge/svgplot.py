"""Deterministic SVG 1.1 scatter plots.

No plotting library: output must be byte-identical across runs and
machines, so everything is fixed-precision text.  Colors come from a
static palette assigned to labels in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
           "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac")

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 64
MARGIN_RIGHT = 160  # room for the legend
MARGIN_TOP = 40
MARGIN_BOTTOM = 48


def escape(text: str) -> str:
    """XML text escaping as ``xml.sax.saxutils.escape`` does it, without
    that import, which pulls in urllib and http.client at startup."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass(frozen=True)
class PlotSpec:
    """Everything needed to render one scatter plot."""

    points: tuple[tuple[float, float, str], ...]
    x_label: str
    y_label: str
    title: str
    palette: tuple[tuple[str, str], ...]  # (label, color), legend order


def build_plot_spec(points: Sequence[tuple[float, float, str]],
                    x_label: str, y_label: str, title: str) -> PlotSpec:
    """Assign palette colors to labels sorted lexicographically."""
    if not points:
        raise ValueError("nothing to plot")
    labels = sorted({str(p[2]) for p in points})
    palette = tuple((lab, PALETTE[i % len(PALETTE)]) for i, lab in enumerate(labels))
    pts = tuple((float(x), float(y), str(lab)) for x, y, lab in points)
    return PlotSpec(pts, x_label, y_label, title, palette)


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_svg(spec: PlotSpec) -> str:
    """Render to an SVG 1.1 document string (stable byte-for-byte)."""
    x_lo, x_hi = _axis_range([p[0] for p in spec.points])
    y_lo, y_hi = _axis_range([p[1] for p in spec.points])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    color = dict(spec.palette)
    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{WIDTH}" height="{HEIGHT}" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(f'<text x="{WIDTH // 2}" y="24" font-family="sans-serif" '
               f'font-size="16" text-anchor="middle">{escape(spec.title)}</text>')

    # frame
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    x1, y1 = MARGIN_LEFT + plot_w, MARGIN_TOP + plot_h
    out.append(f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')

    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y1 + 5}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{y1 + 18}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{x0 - 8}" y="{py + 3:.2f}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="end">{t:.3g}</text>')

    out.append(f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 12}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">{escape(spec.x_label)}</text>')
    out.append(f'<text x="16" y="{(y0 + y1) // 2}" font-family="sans-serif" '
               f'font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 16 {(y0 + y1) // 2})">{escape(spec.y_label)}</text>')

    for x, y, lab in spec.points:
        out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                   f'fill="{color[lab]}" fill-opacity="0.8"/>')

    lx = x1 + 16
    ly = y0 + 10
    for i, (lab, col) in enumerate(spec.palette):
        py = ly + i * 18
        out.append(f'<circle cx="{lx}" cy="{py}" r="4" fill="{col}"/>')
        out.append(f'<text x="{lx + 10}" y="{py + 4}" font-family="sans-serif" '
                   f'font-size="11">{escape(lab)}</text>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
