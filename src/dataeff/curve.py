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

Only the solver needs numpy, and it imports numpy when it runs: loading,
evaluating and inverting a fitted model stays pure Python, so the commands
that do not fit start without the cost of importing numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CurveDomainError, FitError, InputError
from .jsonio import from_dict, loads

if TYPE_CHECKING:
    import numpy as np

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
    return from_dict(CurveModel, loads(Path(path).read_text(encoding="utf-8-sig"), source), source)


@dataclass(frozen=True)
class Inversion:
    """Answer to an inverse query: the subset percent needed (may exceed 100), None if never."""

    percent: float | None

    @property
    def exceeds_full_data(self) -> bool:
        return self.percent is not None and self.percent > 100.0


def _residual(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a, b, c = theta
    return a * x ** (-b) + c - y


def _jacobian(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    import numpy as np

    a, b, _ = theta
    xb = x ** (-b)
    return np.column_stack([xb, -a * np.log(x) * xb, np.ones_like(x)])


def _clip_b(theta: np.ndarray) -> np.ndarray:
    theta = theta.copy()
    theta[1] = min(max(theta[1], B_MIN), B_MAX)
    return theta


def _levenberg_marquardt(theta0, x, y):
    """Damped Gauss-Newton from one start; returns (theta, sse, iterations, converged).

    Damping starts at 1e-3, /10 on an accepted step, *10 on a rejected one;
    b is projected into [B_MIN, B_MAX] after every step.
    """
    import numpy as np

    theta = _clip_b(np.asarray(theta0, dtype=float))
    r = _residual(theta, x, y)
    sse = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        if sse == 0.0:
            converged = True
            break
        jac = _jacobian(theta, x)
        grad = 2.0 * (jac.T @ r)
        if float(np.linalg.norm(grad)) < GRAD_TOL:
            converged = True
            break
        lhs = jac.T @ jac + lam * np.eye(3)
        try:
            step = np.linalg.solve(lhs, -(jac.T @ r))
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = _clip_b(theta + step)
        r_new = _residual(candidate, x, y)
        sse_new = float(r_new @ r_new)
        if sse_new < sse:
            relative_drop = (sse - sse_new) / sse
            theta, r, sse = candidate, r_new, sse_new
            lam = max(lam / 10.0, 1e-15)
            if relative_drop < SSE_RTOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    return theta, sse, iterations, converged


def _loglog_start(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Linear regression of log(y_max + 1 - y) on log(x) seeds (a, b, c)."""
    import numpy as np

    c0 = float(y.max()) + 1.0
    lz = np.log(c0 - y)
    lx = np.log(x)
    var = float(((lx - lx.mean()) ** 2).sum())
    slope = float(((lx - lx.mean()) * (lz - lz.mean())).sum() / var) if var > 0 else -0.5
    intercept = float(lz.mean() - slope * lx.mean())
    return -math.exp(intercept), -slope, c0


def average_points(points: list[EfficiencyPoint]) -> list[EfficiencyPoint]:
    """Collapse points sharing a subset percent into their mean EM (seed dropped)."""
    by_x: dict[float, list[EfficiencyPoint]] = {}
    for p in points:
        by_x.setdefault(p.subset_percent, []).append(p)
    out = []
    for x in sorted(by_x):
        group = by_x[x]
        mean = sum(p.exact_match for p in group) / len(group)
        out.append(
            EfficiencyPoint(x, mean, seed=0, model_id=group[0].model_id, domain=group[0].domain)
        )
    return out


def fit_curve(points: list[EfficiencyPoint], average_first: bool = False) -> CurveModel:
    """Least-squares fit of h to the points, best of three fixed starts.

    Needs at least 3 distinct subset percents strictly above zero; x = 0
    points are silently excluded from the residual. All seeds contribute
    residuals jointly unless average_first collapses them to per-x means.
    """
    import numpy as np

    if average_first:
        points = average_points(points)
    positive = [p for p in points if p.subset_percent > 0.0]
    xs = np.array([p.subset_percent for p in positive], dtype=float)
    ys = np.array([p.exact_match for p in positive], dtype=float)
    if len(set(xs.tolist())) < 3:
        raise FitError(
            f"need at least 3 distinct subset percents > 0 to fit, got {len(set(xs.tolist()))}"
        )
    fit_domain = (float(xs.min()), float(xs.max()))

    if float(ys.max() - ys.min()) == 0.0:
        # Degenerate flat data: pole term vanishes, curve is the constant c.
        return CurveModel(
            a=0.0, b=1.0, c=float(ys[0]), sse=0.0, iterations=0, converged=True,
            fit_domain=fit_domain,
        )

    y_min, y_max = float(ys.min()), float(ys.max())
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
    theta, sse, iterations, converged = best
    return CurveModel(
        a=float(theta[0]), b=float(theta[1]), c=float(theta[2]),
        sse=sse, iterations=iterations, converged=converged, fit_domain=fit_domain,
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
