"""Continuous data-efficiency curves: fit, evaluate, invert.

The curve family is h(x) = a / x**b + c over subset percent x > 0. For a
saturating exact-match curve a < 0, b > 0 and c is the asymptotic EM ceiling.
Fitting minimizes the sum of squared residuals with a damped Gauss-Newton
(Levenberg-Marquardt) iteration run from three fixed starts; the closed-form
inverse h^-1(y) = ((y - c) / a) ** (-1 / b) answers "how much data for y% EM".
Every inverse query gets one answer type, an Inversion: the target is reached
within the data (percent <= 100), needs more than all of it (percent > 100),
or is never reached because it lies at or above the ceiling c (percent None).

Points at x = 0 (the 0% subset is a legitimate observation) are excluded from
the residual because h has a pole there; they still appear in discrete plots.

The solver runs over plain floats: a 3-parameter fit to a few dozen points
is small work, so the module needs nothing beyond the standard library. Every
sum goes through math.fsum, which makes a fit depend on the set of points,
not on their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from pathlib import Path

from .errors import CurveDomainError, FitError, InputError
from .jsonio import from_dict, loads, read_text

B_MIN, B_MAX = 1e-3, 10.0
MAX_ITERATIONS = 500
SSE_RTOL = 1e-12
GRAD_TOL = 1e-10


@dataclass(frozen=True)
class EfficiencyPoint:
    """One observation: (target subset %, exact match %) for a model/domain/seed."""

    subset_percent: float
    exact_match: float
    seed: int = 0
    model_id: str = ""
    domain: str = ""

    def __post_init__(self):
        if not 0.0 <= self.subset_percent <= 100.0:
            raise InputError(f"subset_percent out of [0, 100]: {self.subset_percent}")
        if not 0.0 <= self.exact_match <= 100.0:
            raise InputError(f"exact_match out of [0, 100]: {self.exact_match}")


@dataclass(frozen=True)
class CurveModel:
    """Fitted parameters of h(x) = a / x**b + c plus fit diagnostics."""

    a: float
    b: float
    c: float
    sse: float
    iterations: int
    converged: bool
    fit_domain: tuple[float, float]

    @property
    def well_formed(self) -> bool:
        """True for an increasing, saturating EM curve: a < 0 and c in (0, 200)."""
        return self.a < 0.0 and 0.0 < self.c < 200.0


def points_from_csv(text: str, source: str) -> list["EfficiencyPoint"]:
    """Parse a points CSV; errors name source and line. seed/model_id/domain are optional."""
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
            points.append(
                EfficiencyPoint(x, em, seed, row.get("model_id") or "", row.get("domain") or "")
            )
        except (TypeError, ValueError) as exc:  # a non-numeric or missing cell, or a bad value
            raise InputError(f"{source}:{reader.line_num}: {exc}") from exc
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


def _residual(theta, xs: list[float], ys: list[float]) -> list[float]:
    """h(x) - y at each point; raises OverflowError where x ** -b leaves the float range."""
    a, b, c = theta
    return [a * x ** (-b) + c - y for x, y in zip(xs, ys)]


def _jacobian(theta, xs: list[float]) -> list[list[float]]:
    """The three columns dh/da, dh/db, dh/dc at each point."""
    a, b, _ = theta
    xb = [x ** (-b) for x in xs]
    return [xb, [-a * math.log(x) * v for x, v in zip(xs, xb)], [1.0] * len(xs)]


def _clip_b(theta) -> tuple[float, float, float]:
    a, b, c = theta
    return a, min(max(b, B_MIN), B_MAX), c


def _dot(u: list[float], v: list[float]) -> float:
    return math.fsum(map(mul, u, v))


def _residual_sse(theta, xs, ys) -> tuple[list[float] | None, float]:
    """Residuals and their sum of squares, or (None, inf) where either leaves the float range."""
    try:
        r = _residual(theta, xs, ys)
        sse = _dot(r, r)
    except OverflowError:
        return None, math.inf
    return (r, sse) if math.isfinite(sse) else (None, math.inf)


def _solve3(lhs: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Solve a 3x3 system by Gaussian elimination with partial pivoting; None if singular."""
    rows = [row + [v] for row, v in zip(lhs, rhs)]
    for k in range(3):
        pivot = max(range(k, 3), key=lambda i: abs(rows[i][k]))
        if rows[pivot][k] == 0.0:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, 3):
            f = rows[i][k] / rows[k][k]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[k])]
    step = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        tail = math.fsum(rows[i][j] * step[j] for j in range(i + 1, 3))
        step[i] = (rows[i][3] - tail) / rows[i][i]
    return step


def _levenberg_marquardt(theta0, xs, ys):
    """Damped Gauss-Newton from one start; returns (theta, sse, iterations, converged).

    Damping starts at 1e-3, /10 on an accepted step, *10 on a rejected one;
    b is projected into [B_MIN, B_MAX] after every step. A step whose
    residuals overflow is rejected; the normal equations are built once per
    accepted point, since a rejected step leaves the Jacobian as it was.
    """
    theta = _clip_b(theta0)
    r, sse = _residual_sse(theta, xs, ys)
    lam = 1e-3
    converged = False
    iterations = 0
    normal = None
    for iterations in range(1, MAX_ITERATIONS + 1):
        if normal is None:
            if sse == 0.0:
                converged = True
                break
            if r is None:  # the start itself overflows: there is nothing to step from
                break
            try:
                jac = _jacobian(theta, xs)
                normal = [[_dot(u, v) for v in jac] for u in jac], [-_dot(u, r) for u in jac]
            except (OverflowError, ValueError):  # a sum over the Jacobian left the float range
                break
            if 2.0 * math.hypot(*normal[1]) < GRAD_TOL:
                converged = True
                break
        jtj, rhs = normal
        lhs = [[v + lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(jtj)]
        step = _solve3(lhs, rhs)
        if step is None:
            lam *= 10.0
            continue
        candidate = _clip_b([t + s for t, s in zip(theta, step)])
        r_new, sse_new = _residual_sse(candidate, xs, ys)
        if sse_new < sse:
            relative_drop = (sse - sse_new) / sse
            theta, r, sse, normal = candidate, r_new, sse_new, None
            lam = max(lam / 10.0, 1e-15)
            if relative_drop < SSE_RTOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    return theta, sse, iterations, converged


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _loglog_start(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Linear regression of log(y_max + 1 - y) on log(x) seeds (a, b, c)."""
    c0 = max(ys) + 1.0
    lz = [math.log(c0 - y) for y in ys]
    lx = [math.log(x) for x in xs]
    mean_x, mean_z = _mean(lx), _mean(lz)
    dx = [v - mean_x for v in lx]
    var = _dot(dx, dx)
    slope = _dot(dx, [v - mean_z for v in lz]) / var if var > 0 else -0.5
    intercept = mean_z - slope * mean_x
    try:
        a0 = -math.exp(intercept)
    except OverflowError:  # a start the solver scores as infinite SSE
        a0 = -math.inf
    return a0, -slope, c0


def average_points(points: list[EfficiencyPoint]) -> list[EfficiencyPoint]:
    """Collapse points sharing a subset percent into their mean EM (seed dropped)."""
    by_x: dict[float, list[EfficiencyPoint]] = {}
    for p in points:
        by_x.setdefault(p.subset_percent, []).append(p)
    out = []
    for x in sorted(by_x):
        group = by_x[x]
        mean = _mean([p.exact_match for p in group])
        out.append(
            EfficiencyPoint(x, mean, seed=0, model_id=group[0].model_id, domain=group[0].domain)
        )
    return out


def fit_curve(points: list[EfficiencyPoint], average_first: bool = False) -> CurveModel:
    """Least-squares fit of h to the points, best of three fixed starts.

    Needs at least 3 distinct subset percents strictly above zero; x = 0
    points are silently excluded from the residual. All seeds contribute
    residuals jointly unless average_first collapses them to per-x means.
    Every sum is exactly rounded, so the fit depends on the set of points,
    not on their order.
    """
    if average_first:
        points = average_points(points)
    positive = [p for p in points if p.subset_percent > 0.0]
    xs = [float(p.subset_percent) for p in positive]
    ys = [float(p.exact_match) for p in positive]
    if len(set(xs)) < 3:
        raise FitError(f"need at least 3 distinct subset percents > 0 to fit, got {len(set(xs))}")
    fit_domain = (min(xs), max(xs))
    y_min, y_max = min(ys), max(ys)

    if y_max - y_min == 0.0:
        # Degenerate flat data: pole term vanishes, curve is the constant c.
        return CurveModel(
            a=0.0, b=1.0, c=ys[0], sse=0.0, iterations=0, converged=True, fit_domain=fit_domain,
        )

    starts = [
        (y_min - y_max, 0.5, y_max),
        (-20.0, 0.35, 95.0),
        _loglog_start(xs, ys),
    ]
    best = None
    for start in starts:
        theta, sse, iterations, converged = _levenberg_marquardt(start, xs, ys)
        if best is None or sse < best[1]:
            best = (theta, sse, iterations, converged)
    (a, b, c), sse, iterations, converged = best
    return CurveModel(
        a=a, b=b, c=c, sse=sse, iterations=iterations, converged=converged, fit_domain=fit_domain,
    )


def evaluate(model: CurveModel, x: float, clamp: bool = False) -> float:
    """h(x) = a / x**b + c for x > 0; clamp squeezes the value into [0, 100]."""
    if x <= 0.0:
        raise CurveDomainError(f"curve is undefined at x = {x:g} (pole at zero)")
    value = model.a / x ** model.b + model.c
    if clamp:
        value = min(max(value, 0.0), 100.0)
    return value


def invert(model: CurveModel, y: float) -> Inversion:
    """Subset percent x with h(x) = y, via the closed form ((y - c) / a) ** (-1 / b).

    For a < 0 a target at or above the asymptote c is never reached: the answer
    is Inversion(None). Answers above 100% of the data are flagged exceeds_full_data.
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
    return Inversion(ratio ** (-1.0 / model.b))
