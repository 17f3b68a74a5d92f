"""Dependency-light SVG line charts for report overlays.

Deliberately minimal: static line charts with axes, ticks and a legend,
emitted as a deterministic string.  Figures are artifacts of a run, not a
UI, so there is no interactivity and no plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "line_chart_svg"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 56
_TICKS = 6

PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    values: tuple[float, ...]
    color: str
    dasharray: str = ""  # SVG stroke-dasharray, empty for solid


def _ticks(lo: float, hi: float, count: int) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_chart_svg(
    x: tuple[float, ...],
    series: list[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    # The axes span the finite values alone, and a point with a coordinate
    # that is not finite is left out of its line.
    x = tuple(float(v) for v in x)
    finite_x = [v for v in x if math.isfinite(v)]
    x_lo, x_hi = min(finite_x), max(finite_x)
    finite_y = [v for s in series for v in s.values if math.isfinite(v)]
    y_lo, y_hi = min([0.0, *finite_y]), max([1.0, *finite_y])

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        span = x_hi - x_lo or 1.0
        return _MARGIN_LEFT + (v - x_lo) / span * plot_w

    def py(v: float) -> float:
        span = y_hi - y_lo or 1.0
        return _MARGIN_TOP + (1.0 - (v - y_lo) / span) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    axis_style = 'stroke="#333" stroke-width="1"'
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" {axis_style}/>')
    parts.append(f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" {axis_style}/>')

    for tick in _ticks(x_lo, x_hi, _TICKS):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" y2="{y0 + 5}" {axis_style}/>')
        parts.append(
            f'<text x="{tx:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(y_lo, y_hi, _TICKS):
        ty = py(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" {axis_style}/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )

    parts.append(
        f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    for s in series:
        points = " ".join(
            f"{px(xv):.2f},{py(yv):.2f}"
            for xv, yv in zip(x, s.values)
            if math.isfinite(xv) and math.isfinite(yv)
        )
        dash = f' stroke-dasharray="{s.dasharray}"' if s.dasharray else ""
        parts.append(
            f'<polyline fill="none" stroke="{s.color}" stroke-width="1.5"{dash} points="{points}"/>'
        )

    legend_y = _MARGIN_TOP + 14
    for i, s in enumerate(series):
        ly = legend_y + i * 18
        dash = f' stroke-dasharray="{s.dasharray}"' if s.dasharray else ""
        parts.append(
            f'<line x1="{x0 + 10}" y1="{ly}" x2="{x0 + 38}" y2="{ly}" '
            f'stroke="{s.color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{x0 + 44}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{s.label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
