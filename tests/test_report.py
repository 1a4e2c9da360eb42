import pytest

from dataeff.curve import CurveModel, EfficiencyPoint
from dataeff.errors import DataEffError
from dataeff.report import ReportSpec, render_csv, render_svg, write_report

CANONICAL = CurveModel(-27.26, 0.35, 97.79, 0.0, 0, True, (1.0, 100.0))
POINTS = tuple(
    EfficiencyPoint(x, -27.26 / x**0.35 + 97.79) for x in (1, 2, 4, 7, 12, 21, 36, 60, 100)
)


def test_svg_structure_with_queries():
    spec = ReportSpec(points=POINTS, model=CANONICAL, queries=(80.0, 90.0))
    svg = render_svg(spec)
    assert svg.count('class="point"') == len(POINTS)
    assert svg.count('class="curve"') == 1
    assert svg.count('class="guide"') == 4  # one horizontal + one vertical per query
    polyline = next(line for line in svg.splitlines() if 'class="curve"' in line)
    coords = polyline.split('points="')[1].split('"')[0].split()
    assert len(coords) == 200
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")


def test_svg_discrete_only_without_model():
    svg = render_svg(ReportSpec(points=POINTS))
    assert svg.count('class="point"') == len(POINTS)
    assert 'class="curve"' not in svg
    assert 'class="guide"' not in svg


def test_svg_deterministic_bytes():
    spec = ReportSpec(points=POINTS, model=CANONICAL, queries=(80.0,))
    assert render_svg(spec) == render_svg(spec)
    assert render_csv(spec) == render_csv(spec)


def test_svg_skips_undrawable_queries():
    # 97 is reached only beyond 100% of data and 99 never: no guide pair, a
    # comment in `query`'s words instead; the CSV keeps the beyond-100% answer.
    spec = ReportSpec(points=POINTS, model=CANONICAL, queries=(97.0, 99.0))
    svg = render_svg(spec)
    assert svg.count('class="guide"') == 0
    assert "<!-- query em=97: 24774.02% exceeds_full_data -->" in svg
    assert "<!-- query em=99: unreachable (asymptote 97.79) -->" in svg
    queries = [l for l in render_csv(spec).splitlines() if l.startswith("query,")]
    assert queries == ["query,24774.01851,97", "query,,99"]


def test_csv_series():
    spec = ReportSpec(points=POINTS, model=CANONICAL, queries=(80.0, 90.0))
    lines = render_csv(spec).splitlines()
    assert lines[0] == "series,x,y"
    assert sum(1 for l in lines if l.startswith("point,")) == len(POINTS)
    assert sum(1 for l in lines if l.startswith("curve,")) == 200
    queries = [l for l in lines if l.startswith("query,")]
    assert len(queries) == 2
    assert queries[0] == "query,3.38509727,80"


def test_report_spec_validation():
    with pytest.raises(DataEffError):
        ReportSpec(points=())
    # A query target is a percent in [0, 100], as for `query --em` and `compare --em`.
    ReportSpec(points=POINTS, model=CANONICAL, queries=(0.0,))
    ReportSpec(points=POINTS, model=CANONICAL, queries=(100.0,))
    for y in (-0.5, 100.5):
        with pytest.raises(DataEffError, match=r"query targets must be in \[0, 100\]"):
            ReportSpec(points=POINTS, model=CANONICAL, queries=(y,))
    with pytest.raises(DataEffError):
        ReportSpec(points=POINTS, queries=(80.0,))  # queries need a model


def test_write_report_files(tmp_path):
    spec = ReportSpec(points=POINTS, model=CANONICAL, queries=(80.0,))
    written = write_report(spec, tmp_path / "plot")
    assert [p.name for p in written] == ["plot.svg", "plot.csv"]
    assert (tmp_path / "plot.svg").read_text(encoding="utf-8").startswith("<?xml")
