"""SVG line charts: deterministic text that holds only finite coordinates."""

import math
import re

from riskcheck.svgplot import Series, line_chart_svg

X = (0.0, 1.0, 2.0, 3.0)


def chart(*series: tuple[float, ...]) -> str:
    return line_chart_svg(X, [Series(f"s{i}", v, "#000") for i, v in enumerate(series)], "t", "x", "y")


def polylines(svg: str) -> list[list[str]]:
    return [points.split() for points in re.findall(r'points="([^"]*)"', svg)]


def test_non_finite_points_are_left_out_and_do_not_scale_the_axes():
    svg = chart((0.2, 0.5, math.nan, math.inf), (-math.inf, 2.0, 0.0, 1.0))
    assert "nan" not in svg and "inf" not in svg
    # The same chart with finite values in place of the others: the y axis
    # spans [0, 2] in both, so every tick and every kept point is the same.
    reference = chart((0.2, 0.5, 0.2, 0.2), (0.2, 2.0, 0.0, 1.0))
    assert polylines(svg) == [polylines(reference)[0][:2], polylines(reference)[1][1:]]
    assert re.sub(r'points="[^"]*"', "", svg) == re.sub(r'points="[^"]*"', "", reference)


def test_a_series_with_no_finite_value_draws_an_empty_line():
    svg = chart((math.nan, -math.inf, math.inf, math.nan))
    assert "nan" not in svg and "inf" not in svg
    assert polylines(svg) == [[]]
