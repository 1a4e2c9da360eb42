"""Plot emission without a plotting dependency: SVG for eyes, CSV for machines.

The chart mirrors the discrete/continuous pair: scattered (subset %, EM %)
observations, the fitted curve sampled at 200 x-values and clamped into
[0, 100], drawn as a polyline, and a dashed guide-line pair (horizontal at the
EM target, vertical at the required subset percent) per inverse query answered
within the data; an answer past 100% or one never reached is an SVG comment in
the words of Inversion.cells, as `dataeff query` prints them. Axes are fixed to
[0,100] x [0,100]. Numbers have fixed precision, so output bytes are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .curve import CurveModel, evaluate, invert
from .errors import DataEffError
from .jsonio import csv_text

WIDTH, HEIGHT = 720, 520
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 62, 22, 30, 56
CURVE_SAMPLES = 200


@dataclass(frozen=True)
class ReportSpec:
    """What to draw: points, optional fitted curve, inverse queries."""

    points: tuple
    model: CurveModel | None = None
    queries: tuple = ()

    def __post_init__(self):
        if not self.points:
            raise DataEffError("report needs at least one point")
        for y in self.queries:
            if not 0.0 <= y <= 100.0:
                raise DataEffError(f"query targets must be in [0, 100], got {y:g}")
        if self.queries and self.model is None:
            raise DataEffError("queries need a fitted curve model")


def _fx(x: float) -> float:
    return MARGIN_LEFT + x / 100.0 * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)


def _fy(y: float) -> float:
    return HEIGHT - MARGIN_BOTTOM - y / 100.0 * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)


def _curve(model: CurveModel) -> list[tuple[float, float]]:
    """The curve at CURVE_SAMPLES x-values from the fit's lowest x to 100, in [0, 100]."""
    step = (100.0 - model.fit_domain[0]) / (CURVE_SAMPLES - 1)
    xs = [model.fit_domain[0] + i * step for i in range(CURVE_SAMPLES)]
    return [(x, min(max(evaluate(model, x), 0.0), 100.0)) for x in xs]


def _line(cls: str, x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    """An SVG line between two points given in data units (subset %, EM %)."""
    return (f'<line class="{cls}" x1="{_fx(x1):.2f}" y1="{_fy(y1):.2f}" x2="{_fx(x2):.2f}" '
            f'y2="{_fy(y2):.2f}" {style}/>')


def render_svg(spec: ReportSpec) -> str:
    """Standalone SVG document for the report."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # grid and axes, ticks every 20 units
    for value in range(0, 101, 20):
        out.append(_line("grid", value, 0, value, 100, 'stroke="#dddddd" stroke-width="1"'))
        out.append(_line("grid", 0, value, 100, value, 'stroke="#dddddd" stroke-width="1"'))
        out.append(
            f'<text class="tick" x="{_fx(value):.2f}" y="{_fy(0) + 18:.2f}" font-size="12" '
            f'text-anchor="middle">{value}</text>'
        )
        out.append(
            f'<text class="tick" x="{_fx(0) - 8:.2f}" y="{_fy(value) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{value}</text>'
        )
    out.append(_line("axis", 0, 0, 100, 0, 'stroke="black" stroke-width="1.5"'))
    out.append(_line("axis", 0, 0, 0, 100, 'stroke="black" stroke-width="1.5"'))
    out.append(
        f'<text class="label" x="{(_fx(0) + _fx(100)) / 2:.2f}" y="{HEIGHT - 12}" '
        f'font-size="14" text-anchor="middle">target subset (%)</text>'
    )
    out.append(
        f'<text class="label" x="16" y="{(_fy(0) + _fy(100)) / 2:.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 {(_fy(0) + _fy(100)) / 2:.2f})">'
        "exact match (%)</text>"
    )

    if spec.model is not None:
        coords = " ".join(f"{_fx(x):.2f},{_fy(y):.2f}" for x, y in _curve(spec.model))
        out.append(
            f'<polyline class="curve" points="{coords}" fill="none" '
            'stroke="#1f77b4" stroke-width="2"/>'
        )
        for y in spec.queries:
            answer = invert(spec.model, y)
            percent, note = answer.cells(".2f", spec.model.c)
            if note:  # no guide line past the 100% axis, nor for a target never reached
                out.append(f"<!-- query em={y:g}: {percent + '% ' if percent else ''}{note} -->")
                continue
            dash = 'stroke="#d62728" stroke-width="1.5" stroke-dasharray="5 4"'
            out.append(_line("guide", 0, y, answer.percent, y, dash))
            out.append(_line("guide", answer.percent, y, answer.percent, 0, dash))
            out.append(
                f'<text class="guide-label" x="{_fx(answer.percent) + 4:.2f}" y="{_fy(0) - 6:.2f}" '
                f'font-size="12" fill="#d62728">{percent}%</text>'
            )

    for p in spec.points:
        out.append(
            f'<circle class="point" cx="{_fx(p.subset_percent):.2f}" '
            f'cy="{_fy(p.exact_match):.2f}" r="4" fill="#ff7f0e" '
            'stroke="#8c4a03" stroke-width="1"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_csv(spec: ReportSpec) -> str:
    """Raw series behind the chart: discrete points, curve samples, query answers."""
    rows = [("series", "x", "y")]
    rows += [("point", f"{p.subset_percent:.10g}", f"{p.exact_match:.10g}") for p in spec.points]
    if spec.model is not None:
        rows += [("curve", f"{x:.10g}", f"{y:.10g}") for x, y in _curve(spec.model)]
        for y in spec.queries:
            percent, _ = invert(spec.model, y).cells(".10g")  # "" for a target never reached
            rows.append(("query", percent, f"{y:.10g}"))
    return csv_text(rows)


def write_report(spec: ReportSpec, out_prefix: str | Path) -> list[Path]:
    """Write <prefix>.svg and <prefix>.csv; returns the paths written.

    The extension is appended to the prefix as given, so a prefix with a dot
    in its last part (``curve_v1.5``) keeps it.
    """
    written = []
    for fmt, render in (("svg", render_svg), ("csv", render_csv)):
        path = Path(f"{out_prefix}.{fmt}")
        path.write_text(render(spec), encoding="utf-8")
        written.append(path)
    return written
