"""A numpy Levenberg-Marquardt solver, the reference that `test_curve.py`
compares `dataeff.curve.fit_curve` against.

It reaches the least-squares fit by another road than the separable profile
search of `fit_curve`: damped Gauss-Newton from three fixed starts, with b
projected into its bounds after every step, over numpy arrays with
`numpy.linalg.solve` and numpy's own summation; `average_points` sums with a
plain `sum`. It shares the curve module's bounds on b and data types, and
keeps its own stopping constants.
"""

from __future__ import annotations

import math

import numpy as np

from dataeff.curve import B_MAX, B_MIN, CurveModel, EfficiencyPoint
from dataeff.errors import FitError

MAX_ITERATIONS = 500
GRAD_TOL = 1e-10


def _residual(theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a, b, c = theta
    return a * x ** (-b) + c - y


def _jacobian(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
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
    b is projected into [B_MIN, B_MAX] after every step. It stops on a gradient
    norm below GRAD_TOL (converged), once no step lowers the SSE even at damping
    1e15, or after MAX_ITERATIONS; never on a small drop of the SSE alone.
    """
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
            theta, r, sse = candidate, r_new, sse_new
            lam = max(lam / 10.0, 1e-15)
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    return theta, sse, iterations, converged


def _loglog_start(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Linear regression of log(y_max + 1 - y) on log(x) seeds (a, b, c)."""
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
        out.append(EfficiencyPoint(x, sum(p.exact_match for p in group) / len(group)))
    return out


def fit_curve(points: list[EfficiencyPoint], average_first: bool = False) -> CurveModel:
    """Least-squares fit of h to the points, best of three fixed starts.

    Needs at least 3 distinct subset percents strictly above zero; x = 0
    points are silently excluded from the residual. All seeds contribute
    residuals jointly unless average_first collapses them to per-x means.
    """
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
