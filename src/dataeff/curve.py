"""Continuous data-efficiency curves: fit, evaluate, invert.

The curve family is h(x) = a / x**b + c over subset percent x > 0. For a
saturating exact-match curve a < 0, b > 0 and c is the asymptotic EM ceiling.
Fitting minimizes the sum of squared residuals by separable least squares
(variable projection; Golub & Pereyra 1973): for a fixed b the model is
linear in (a, c), whose least-squares values have a closed form, so the fit is
a 1-D search of the profile SSE(b) over ln b in [ln B_MIN, ln B_MAX]. A fixed
grid finds the best cell, and bisection on the sign of dSSE/db closes it.
The closed-form inverse h^-1(y) = ((y - c) / a) ** (-1 / b) answers "how
much data for y% EM".
Every inverse query gets one answer type, an Inversion, whose cells give the words
of every printed answer: reached within the data (percent <= 100), past all of it
(percent > 100), or never, at or above the ceiling c (percent None).

Points at x = 0 (the 0% subset is a legitimate observation) are excluded from
the residual because h has a pole there; they still appear in discrete plots.

The fit runs over plain floats: a 1-D search over a few dozen points is
small work, so the module needs nothing beyond the standard library. Every
sum goes through math.fsum, which makes a fit depend on the set of points,
not on their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import CurveDomainError, FitError, InputError
from .jsonio import from_dict, loads, read_text

B_MIN, B_MAX = 1e-3, 10.0
MIN_FIT_PERCENTS = 3  # distinct subset percents above 0 that a fit needs
# Profile evaluations on the grid of ln b, bounds included: 4 already find the lowest minimum
# of all 400 reference-test fixtures, and 16 (a factor 1.85 in b per cell) keep a margin.
GRID_POINTS = 16


@dataclass(frozen=True)
class EfficiencyPoint:
    """One observation: (target subset %, exact match %) of one run, and its seed."""

    subset_percent: float
    exact_match: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.subset_percent <= 100.0:
            raise InputError(f"subset_percent out of [0, 100]: {self.subset_percent}")
        if not 0.0 <= self.exact_match <= 100.0:
            raise InputError(f"exact_match out of [0, 100]: {self.exact_match}")


@dataclass(frozen=True)
class CurveModel:
    """Fitted parameters of h(x) = a / x**b + c plus fit diagnostics; InputError names
    a field that is not finite, a negative sse or iterations, or a bad fit_domain."""

    a: float
    b: float
    c: float
    sse: float
    iterations: int
    converged: bool
    fit_domain: tuple[float, float]

    def __post_init__(self):
        for name in ("a", "b", "c", "sse"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sse < 0.0:
            raise InputError(f"sse must be >= 0, got {self.sse}")
        if self.iterations < 0:
            raise InputError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 < self.fit_domain[0] <= self.fit_domain[1] <= 100.0:
            raise InputError(f"fit_domain must be 0 < low <= high <= 100, got {self.fit_domain}")

    @property
    def well_formed(self) -> bool:
        """True for an increasing, saturating EM curve: a < 0 and c in (0, 200)."""
        return self.a < 0.0 and 0.0 < self.c < 200.0


def points_from_csv(text: str, source: str) -> list["EfficiencyPoint"]:
    """Parse a points CSV; errors name source and line. seed is optional, other columns ignored."""
    import csv
    import io

    reader = csv.DictReader(io.StringIO(text))
    required = {"subset_percent", "exact_match"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise FitError(
            f"{source}: points CSV needs at least the columns subset_percent,exact_match; "
            f"got header {reader.fieldnames}"
        )
    points = []
    for row in reader:
        try:
            x, em = float(row["subset_percent"]), float(row["exact_match"])
            seed = int(row.get("seed") or 0)
            points.append(EfficiencyPoint(x, em, seed))
        except (TypeError, ValueError) as exc:  # a non-numeric or missing cell, or a bad value
            raise InputError(str(exc), source, reader.line_num) from exc
    return points


def load_model(path: str | Path) -> CurveModel:
    source = str(path)
    return from_dict(CurveModel, loads(read_text(path), source), source)


@dataclass(frozen=True)
class Inversion:
    """Answer to an inverse query: the subset percent needed (may exceed 100), None if never."""

    percent: float | None

    @property
    def exceeds_full_data(self) -> bool:
        return self.percent is not None and self.percent > 100.0

    def cells(self, spec: str, ceiling: float | None = None) -> tuple[str, str]:
        """The answer as printed, (percent formatted with spec, note): note is "" within the
        data and "exceeds_full_data" past it. A target never reached has percent "" and note
        "unreachable", with " (asymptote C)" after it when a ceiling C is given."""
        if self.percent is None:
            return "", "unreachable" + ("" if ceiling is None else f" (asymptote {ceiling:.2f})")
        return format(self.percent, spec), "exceeds_full_data" if self.exceeds_full_data else ""


class _Profile(NamedTuple):
    """One point of the profile SSE(b): the best (a, c) for b, and dSSE/db there."""

    sse: float
    slope: float
    a: float
    b: float
    c: float


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _profile(b: float, xs: list[float], ys: list[float], log_xs: list[float]) -> _Profile:
    """The inner step: the least-squares (a, c) for a fixed b, in closed form.

    The slope is dSSE/db = 2a * sum(r * -ln x * x**-b), exact at the inner
    optimum by the envelope theorem. A b whose sums leave the float range, or
    whose x**-b are all equal, scores sse = inf.
    """
    try:
        u = [x ** -b for x in xs]
        mean_u, mean_y = _mean(u), _mean(ys)
        du = [v - mean_u for v in u]
        a = math.fsum(d * (y - mean_y) for d, y in zip(du, ys)) / math.fsum(d * d for d in du)
        c = mean_y - a * mean_u
        r = [a * v + c - y for v, y in zip(u, ys)]
        sse = math.fsum(v * v for v in r)
        slope = -2.0 * a * math.fsum(v * w * t for v, w, t in zip(r, u, log_xs))
        if all(map(math.isfinite, (sse, slope, a, c))):
            return _Profile(sse, slope, a, b, c)
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    return _Profile(math.inf, math.nan, math.nan, b, math.nan)


def average_points(points: list[EfficiencyPoint]) -> list[EfficiencyPoint]:
    """Collapse points sharing a subset percent into their mean EM (seed dropped)."""
    by_x: dict[float, list[EfficiencyPoint]] = {}
    for p in points:
        by_x.setdefault(p.subset_percent, []).append(p)
    out = []
    for x in sorted(by_x):
        out.append(EfficiencyPoint(x, _mean([p.exact_match for p in by_x[x]])))
    return out


def fit_curve(points: list[EfficiencyPoint]) -> CurveModel:
    """Least-squares fit of h to the points by a 1-D search of the profile SSE(b).

    Needs at least 3 distinct subset percents strictly above zero; x = 0
    points are silently excluded from the residual. Each point is one residual,
    so seeds count jointly; fit average_points(points) to fit per-x means.
    Every sum is exactly rounded, so the fit depends on the set of points,
    not on their order. iterations counts profile evaluations; converged means
    the bisection bracket closed, or b sits at a bound where the slope of the
    profile points outward.
    """
    positive = [p for p in points if p.subset_percent > 0.0]
    xs = [float(p.subset_percent) for p in positive]
    ys = [float(p.exact_match) for p in positive]
    if len(set(xs)) < MIN_FIT_PERCENTS:
        raise FitError(f"need at least {MIN_FIT_PERCENTS} distinct subset percents > 0 to fit, "
                       f"got {len(set(xs))}")
    fit_domain = (min(xs), max(xs))

    if max(ys) - min(ys) == 0.0:
        # Degenerate flat data: pole term vanishes, curve is the constant c.
        return CurveModel(
            a=0.0, b=1.0, c=ys[0], sse=0.0, iterations=0, converged=True, fit_domain=fit_domain,
        )

    log_xs = [math.log(x) for x in xs]
    last = GRID_POINTS - 1
    t_min, t_max = math.log(B_MIN), math.log(B_MAX)
    inner = [math.exp(t_min + (t_max - t_min) * k / last) for k in range(1, last)]
    grid = [_profile(b, xs, ys, log_xs) for b in (B_MIN, *inner, B_MAX)]
    k = min(range(GRID_POINTS), key=lambda i: grid[i].sse)
    best = grid[k]
    if best.sse == math.inf:
        raise FitError(f"no exponent b in [{B_MIN:g}, {B_MAX:g}] gives a finite fit")
    iterations = GRID_POINTS
    # At a bound whose slope points outward, b is that bound exactly.
    converged = (k == 0 and best.slope >= 0.0) or (k == last and best.slope <= 0.0)
    if not converged:
        # The profile falls from the best grid point toward one neighbour, so
        # a minimum lies in that cell: bisect it on the sign of the slope.
        lo, hi = (grid[k - 1], best) if best.slope > 0.0 else (best, grid[k + 1])
        while True:
            b = math.exp((math.log(lo.b) + math.log(hi.b)) / 2.0)
            if not lo.b < b < hi.b:  # no float lies between the ends: the bracket closed
                converged = True
                break
            point = _profile(b, xs, ys, log_xs)
            iterations += 1
            if point.slope >= 0.0:
                hi = point
            elif point.slope < 0.0:
                lo = point
            else:  # the point left the float range
                break
        best = min(best, lo, hi, key=lambda p: p.sse)
    return CurveModel(
        a=best.a, b=best.b, c=best.c, sse=best.sse, iterations=iterations, converged=converged,
        fit_domain=fit_domain,
    )


def evaluate(model: CurveModel, x: float) -> float:
    """h(x) = a / x**b + c for x > 0, or its limit where x**b leaves the float range.

    An x**b past the largest float gives c; one that rounds to 0 gives an
    infinity with the sign of a (c when a = 0).
    """
    if x <= 0.0:
        raise CurveDomainError(f"curve is undefined at x = {x:g} (pole at zero)")
    try:
        power = math.pow(x, model.b)
    except OverflowError:
        return model.c
    if power == 0.0:
        return model.c if model.a == 0.0 else math.copysign(math.inf, model.a)
    return model.a / power + model.c


def invert(model: CurveModel, y: float) -> Inversion:
    """Subset percent x with h(x) = y, via the closed form ((y - c) / a) ** (-1 / b).

    For a < 0 a target at or above the asymptote c is never reached: the answer
    is Inversion(None). Answers above 100% of the data are flagged exceeds_full_data;
    one past the float range is math.inf.
    Raises CurveDomainError for b <= 0, a = 0, or a target out of range when a > 0.
    """
    if model.b <= 0.0:
        raise CurveDomainError(f"cannot invert a curve with b = {model.b:g} <= 0")
    if model.a == 0.0:
        raise CurveDomainError("cannot invert a flat curve (a = 0)")
    ratio = (y - model.c) / model.a
    if ratio <= 0.0:
        if model.a < 0.0:
            return Inversion(None)
        raise CurveDomainError(
            f"exact match {y:g} is outside the range of this curve (c = {model.c:g})"
        )
    try:
        return Inversion(ratio ** (-1.0 / model.b))
    except OverflowError:  # the answer is past the float range
        return Inversion(math.inf)
