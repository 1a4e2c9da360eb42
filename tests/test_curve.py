import decimal
import json
import math
import random
from decimal import Decimal

import numpy as np
import pytest

import numpy_reference_fit
from dataeff.curve import (
    B_MAX,
    B_MIN,
    CurveModel,
    EfficiencyPoint,
    Inversion,
    average_points,
    evaluate,
    fit_curve,
    invert,
    points_from_csv,
)
from dataeff.errors import CurveDomainError, FitError, InputError
from dataeff.jsonio import dumps, from_dict
from dataeff.report import ReportSpec, render_csv

# Canonical fixture curve used throughout: a=-27.26, b=0.35, c=97.79.
CANONICAL = CurveModel(-27.26, 0.35, 97.79, 0.0, 0, True, (1.0, 100.0))
POSITIVE_SIZES = (1, 2, 4, 7, 12, 21, 36, 60, 100)


def h(x, a=-27.26, b=0.35, c=97.79):
    return a / x**b + c


def noiseless_points(a=-27.26, b=0.35, c=97.79, xs=POSITIVE_SIZES):
    return [EfficiencyPoint(x, h(x, a, b, c)) for x in xs]


def test_fit_recovers_canonical_parameters():
    model = fit_curve(noiseless_points())
    assert abs(model.a - -27.26) / 27.26 < 1e-4
    assert abs(model.b - 0.35) / 0.35 < 1e-4
    assert abs(model.c - 97.79) / 97.79 < 1e-4
    assert model.converged
    assert model.well_formed
    assert model.fit_domain == (1.0, 100.0)


def test_fit_three_points_interpolates_exactly():
    points = [EfficiencyPoint(x, h(x, -10.0, 1.0, 90.0)) for x in (1, 10, 100)]
    model = fit_curve(points)
    assert model.sse < 1e-16
    assert model.a == pytest.approx(-10.0, rel=1e-9)
    assert model.b == pytest.approx(1.0, rel=1e-9)
    assert model.c == pytest.approx(90.0, rel=1e-9)


def test_fit_two_points_rejected():
    with pytest.raises(FitError):
        fit_curve([EfficiencyPoint(1, 70), EfficiencyPoint(100, 95)])


def test_fit_requires_distinct_positive_x():
    points = [
        EfficiencyPoint(1, 70, seed=0),
        EfficiencyPoint(1, 71, seed=1),
        EfficiencyPoint(2, 80),
        EfficiencyPoint(0, 10),
    ]
    with pytest.raises(FitError):
        fit_curve(points)


def test_fit_flat_data_degenerates():
    points = [EfficiencyPoint(x, 50.0) for x in (1, 5, 25, 100)]
    model = fit_curve(points)
    assert model.a == 0.0
    assert model.c == 50.0
    assert model.converged
    assert not model.well_formed


def test_fit_excludes_zero_points():
    with_zero = [EfficiencyPoint(0, 5.0)] + noiseless_points()
    without = noiseless_points()
    m1, m2 = fit_curve(with_zero), fit_curve(without)
    assert (m1.a, m1.b, m1.c) == (m2.a, m2.b, m2.c)


def test_fit_order_invariant():
    # Every sum in the fit is exactly rounded, so the order of points cannot move a bit.
    rng = random.Random(5)
    points = [EfficiencyPoint(p.subset_percent, min(p.exact_match + rng.gauss(0, 2), 100.0),
                              seed=seed)
              for seed in range(3) for p in noiseless_points()]
    shuffled = points[:]
    rng.shuffle(shuffled)
    for prepare in (list, average_points):
        assert fit_curve(prepare(points)) == fit_curve(prepare(shuffled)), prepare


def test_fit_duplication_invariant():
    points = noiseless_points()
    tripled = [p for p in points for _ in range(3)]
    m1, m2 = fit_curve(points), fit_curve(tripled)
    assert abs(m1.a - m2.a) < 1e-6
    assert abs(m1.b - m2.b) < 1e-6
    assert abs(m1.c - m2.c) < 1e-6


def _jacobian_residual(model, points):
    """The columns dh/da, dh/db, dh/dc and the residuals h - y of the model, built in numpy."""
    x = np.array([p.subset_percent for p in points], dtype=float)
    y = np.array([p.exact_match for p in points], dtype=float)
    xb = x ** -model.b
    jac = np.column_stack([xb, -model.a * np.log(x) * xb, np.ones_like(x)])
    return jac, model.a * xb + model.c - y


def test_fit_gradient_vanishes_on_noiseless_data():
    rng = np.random.default_rng(31337)
    for _ in range(10):
        a, b, c = rng.uniform(-40, -5), rng.uniform(0.1, 2), rng.uniform(60, 99)
        points = noiseless_points(a, b, c)
        jac, r = _jacobian_residual(fit_curve(points), points)
        assert float(np.linalg.norm(2.0 * jac.T @ r)) < 1e-8


def test_evaluate_canonical_values():
    assert evaluate(CANONICAL, 1.0) == pytest.approx(70.53, abs=1e-9)
    assert evaluate(CANONICAL, 7.0) == pytest.approx(83.9943700172168, abs=1e-9)
    assert evaluate(CANONICAL, 100.0) == pytest.approx(92.35091492939483, abs=1e-9)


def test_evaluate_pole_at_zero():
    with pytest.raises(CurveDomainError):
        evaluate(CANONICAL, 0.0)
    with pytest.raises(CurveDomainError):
        evaluate(CANONICAL, -3.0)


def test_evaluate_clamps_only_on_request():
    # evaluate returns h itself; only the curve a report draws is clamped into [0, 100]
    tall = CurveModel(-5.0, 0.5, 103.0, 0.0, 0, True, (1.0, 100.0))
    low = CurveModel(-50.0, 0.5, 10.0, 0.0, 0, True, (1.0, 100.0))
    assert evaluate(tall, 100.0) > 100.0
    assert evaluate(low, 1.0) < 0.0
    for model, clamped in ((tall, 100.0), (low, 0.0)):
        csv = render_csv(ReportSpec((EfficiencyPoint(1.0, 50.0),), model))
        curve = [float(line.split(",")[2]) for line in csv.splitlines() if line.startswith("curve,")]
        assert clamped in curve and all(0.0 <= y <= 100.0 for y in curve)


def test_evaluate_returns_its_limits_past_the_float_range():
    steep = CurveModel(-30.0, 400.0, 95.0, 0.0, 0, True, (1.0, 100.0))
    assert evaluate(steep, 100.0) == 95.0  # 100 ** 400 overflows: a / x**b -> 0
    steeper = CurveModel(-30.0, 2000.0, 95.0, 0.0, 0, True, (0.5, 100.0))
    assert evaluate(steeper, 0.5) == -math.inf  # 0.5 ** 2000 underflows to 0
    assert evaluate(CurveModel(30.0, 2000.0, 95.0, 0.0, 0, True, (0.5, 100.0)), 0.5) == math.inf
    assert evaluate(CurveModel(0.0, 2000.0, 95.0, 0.0, 0, True, (0.5, 100.0)), 0.5) == 95.0


def test_invert_canonical_closed_form():
    # Closed-form oracle ((y - c) / a) ** (-1 / b) at full precision.
    assert invert(CANONICAL, 80.0).percent == pytest.approx(3.385097270466952, abs=1e-9)
    assert invert(CANONICAL, 90.0).percent == pytest.approx(35.83047402634006, abs=1e-9)
    assert not invert(CANONICAL, 80.0).exceeds_full_data


def test_invert_round_trip():
    y = evaluate(CANONICAL, 7.0)
    assert invert(CANONICAL, y).percent == pytest.approx(7.0, abs=1e-9)


def test_invert_above_asymptote():
    # Never reached is an answer, not an error: no percent, and not flagged as
    # needing more than the full data.
    for y in (98.0, 97.79):  # the ceiling itself is never reached
        answer = invert(CANONICAL, y)
        assert answer == Inversion(None)
        assert answer.percent is None
        assert not answer.exceeds_full_data


def test_invert_flags_beyond_full_data():
    answer = invert(CANONICAL, 97.0)
    assert answer.exceeds_full_data
    assert answer.percent == pytest.approx(24774.01850968851, rel=1e-9)
    # The flag is derived from the percent, never stored beside it.
    assert Inversion(100.0).exceeds_full_data is False
    assert Inversion(100.5).exceeds_full_data is True
    with pytest.raises(TypeError):
        Inversion(50.0, True)


def test_invert_past_the_float_range_is_infinite():
    # ((94.98 - 95) / -30) ** -100 is about 1e318, past the largest float.
    model = CurveModel(-30.0, 0.01, 95.0, 0.0, 0, True, (1.0, 100.0))
    answer = invert(model, 94.98)
    assert answer == Inversion(math.inf)
    assert answer.exceeds_full_data


def test_invert_rejects_degenerate_models():
    with pytest.raises(CurveDomainError):
        invert(CurveModel(-10.0, 0.0, 90.0, 0.0, 0, True, (1.0, 100.0)), 80.0)
    with pytest.raises(CurveDomainError):
        invert(CurveModel(0.0, 1.0, 90.0, 0.0, 0, True, (1.0, 100.0)), 80.0)
    with pytest.raises(CurveDomainError):  # a > 0: a falling curve never drops to 85
        invert(CurveModel(10.0, 0.5, 90.0, 0.0, 0, True, (1.0, 100.0)), 85.0)


@pytest.mark.parametrize("answer, without_ceiling, with_ceiling", [
    (invert(CANONICAL, 80.0), ("3.385", ""), ("3.385", "")),
    (invert(CANONICAL, 97.0), ("24774.019", "exceeds_full_data"),
     ("24774.019", "exceeds_full_data")),
    (Inversion(math.inf), ("inf", "exceeds_full_data"), ("inf", "exceeds_full_data")),
    (invert(CANONICAL, 99.0), ("", "unreachable"), ("", "unreachable (asymptote 97.79)")),
])
def test_inversion_cells_word_every_answer(answer, without_ceiling, with_ceiling):
    assert answer.cells(".3f") == without_ceiling
    assert answer.cells(".3f", CANONICAL.c) == with_ceiling


def test_round_trip_property_over_random_models():
    rng = np.random.default_rng(777)
    for _ in range(50):
        model = CurveModel(
            a=float(rng.uniform(-40, -5)),
            b=float(rng.uniform(0.1, 2.0)),
            c=float(rng.uniform(60, 99)),
            sse=0.0, iterations=0, converged=True, fit_domain=(0.5, 100.0),
        )
        for x in np.linspace(0.5, 100.0, 23):
            x = float(x)
            back = invert(model, evaluate(model, x)).percent
            assert abs(back - x) < 1e-6 * x


def test_monotone_increasing_for_well_formed_models():
    rng = np.random.default_rng(4242)
    xs = rng.uniform(0.5, 100.0, size=(1000, 2))
    for lo, hi in np.sort(xs, axis=1):
        if lo == hi:
            continue
        assert evaluate(CANONICAL, float(lo)) < evaluate(CANONICAL, float(hi))


def test_average_points_pools_seeds():
    points = [
        EfficiencyPoint(1, 70, seed=0), EfficiencyPoint(1, 72, seed=1),
        EfficiencyPoint(2, 80, seed=0), EfficiencyPoint(2, 82, seed=1),
    ]
    averaged = average_points(points)
    assert [(p.subset_percent, p.exact_match) for p in averaged] == [(1, 71.0), (2, 81.0)]
    model_avg = fit_curve(average_points(points + [EfficiencyPoint(4, 85), EfficiencyPoint(7, 88)]))
    assert model_avg.iterations >= 0  # averaging path fits without error


def test_model_json_round_trip_full_precision():
    model = fit_curve(noiseless_points())
    text = dumps(model)
    again = from_dict(CurveModel, json.loads(text), "model.json")
    assert again == model
    payload = json.loads(text)
    assert payload["a"] == model.a  # no rounding in serialized parameters


def test_points_csv_round_trip():
    points = [EfficiencyPoint(1, 70.5, seed=2), EfficiencyPoint(12, 88.25, seed=3)]
    # Columns other than subset_percent, exact_match and seed are ignored.
    text = ("subset_percent,exact_match,seed,model_id,domain\n"
            "1,70.5,2,m,weather\n12,88.25,3,m,weather\n")
    assert points_from_csv(text, "p.csv") == points


def test_points_csv_minimal_columns():
    points = points_from_csv("subset_percent,exact_match\n1,70\n12,88\n", "p.csv")
    assert points == [EfficiencyPoint(1, 70), EfficiencyPoint(12, 88)]
    with pytest.raises(FitError, match="^p.csv: points CSV needs"):
        points_from_csv("x,y\n1,70\n", "p.csv")


def test_points_csv_bad_cell_names_line():
    with pytest.raises(InputError, match="^p.csv:3: "):
        points_from_csv("subset_percent,exact_match\n1,70\ntwelve,88\n", "p.csv")
    with pytest.raises(InputError, match="^p.csv:2: "):
        points_from_csv("subset_percent,exact_match,seed\n1,70,x\n", "p.csv")
    with pytest.raises(InputError, match="^p.csv:2: "):
        points_from_csv("subset_percent,exact_match\n1\n", "p.csv")  # short row: missing cell
    with pytest.raises(InputError, match=r"^p.csv:3: subset_percent out of \[0, 100\]: 101.0"):
        points_from_csv("subset_percent,exact_match\n1,70\n101,88\n", "p.csv")


def test_point_validation():
    with pytest.raises(ValueError):
        EfficiencyPoint(-1, 50)
    with pytest.raises(ValueError):
        EfficiencyPoint(50, 101)


def test_fit_decreasing_data_flagged_not_well_formed():
    points = [EfficiencyPoint(x, h(x, 20.0, 0.5, 60.0)) for x in POSITIVE_SIZES]
    model = fit_curve(points)
    assert not model.well_formed
    assert model.a == pytest.approx(20.0, rel=1e-6)
    assert model.sse < 1e-12


def test_fit_nearly_flat_data_converges():
    points = [EfficiencyPoint(x, 50.0 + 1e-12 * x) for x in (1, 4, 16, 64)]
    model = fit_curve(points)
    assert model.converged
    assert model.sse < 1e-18


def _noisy_fixture(seed, sigma):
    """Three seeds over the positive default schedule around a random saturating truth."""
    rng = random.Random(seed)
    a, b, c = rng.uniform(-40, -5), rng.uniform(0.1, 1.5), rng.uniform(60, 99)
    return [EfficiencyPoint(x, min(max(h(x, a, b, c) + rng.gauss(0, sigma), 0.0), 100.0), seed=s)
            for s in range(3) for x in POSITIVE_SIZES]


def _answer(model, y):
    try:
        return invert(model, y).percent
    except CurveDomainError:
        return "out of range"


def _fixtures():
    """The 400 fits the reference and optimality tests run: (where, points, average_first)."""
    for sigma in (0.0, 0.5, 1.0, 3.0, 8.0):
        for seed in range(40):
            points = _noisy_fixture(seed, sigma)
            for average_first in (False, True):
                yield (sigma, seed, average_first), points, average_first


def _same_fit(got, want, rel):
    """a, b, c and the answers at 80, 90 and 95% EM agree to rel (non-numeric answers exactly)."""
    for y in (80, 90, 95):
        expected = _answer(want, y)
        if isinstance(expected, float):
            expected = pytest.approx(expected, rel=rel)
        if _answer(got, y) != expected:
            return False
    return all(getattr(got, name) == pytest.approx(getattr(want, name), rel=rel)
               for name in ("a", "b", "c"))


def _exact_fit(points, b):
    """The minimum of the profile SSE(b) nearest b, in 40-digit decimal arithmetic.

    Secant steps on the profile's slope dSSE/db, with the closed-form (a, c) for
    each b; a step past a bound stops on the bound. The oracle shares no code
    with either float solver, and its rounding is 24 digits below theirs.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pairs = [(Decimal(p.subset_percent).ln(), Decimal(p.exact_match))
                 for p in points if p.subset_percent > 0]
        n = len(pairs)
        mean_y = sum(y for _, y in pairs) / n

        def profile(b):
            u = [(-b * log_x).exp() for log_x, _ in pairs]
            mean_u = sum(u) / n
            a = (sum((v - mean_u) * (y - mean_y) for v, (_, y) in zip(u, pairs))
                 / sum((v - mean_u) ** 2 for v in u))
            c = mean_y - a * mean_u
            slope = -2 * a * sum((a * v + c - y) * v * log_x for v, (log_x, y) in zip(u, pairs))
            return a, c, slope

        lo, hi = Decimal(B_MIN), Decimal(B_MAX)
        b0 = Decimal(b)
        b1 = b0 * (1 + Decimal("1e-6"))
        s0, s1 = profile(b0)[2], profile(b1)[2]
        for _ in range(100):
            if b1 == b0 or s1 == s0:
                break
            b0, s0, b1 = b1, s1, min(max(b1 - s1 * (b1 - b0) / (s1 - s0), lo), hi)
            s1 = profile(b1)[2]
        a, c, _ = profile(b1)
        return CurveModel(float(a), float(b1), float(c), 0.0, 0, True, (1.0, 100.0))


def test_fit_matches_the_numpy_reference_solver():
    # iterations and converged are not compared: the two solvers count different steps.
    fits = fallbacks = 0
    for where, points, average_first in _fixtures():
        used = average_points(points) if average_first else points
        got = fit_curve(used)
        want = numpy_reference_fit.fit_curve(points, average_first=average_first)
        fits += 1
        assert got.sse <= want.sse * (1 + 1e-9) + 1e-12, where
        assert got.fit_domain == want.fit_domain
        if not B_MIN < want.b < B_MAX:
            continue
        if want.iterations < numpy_reference_fit.MAX_ITERATIONS:
            assert _same_fit(got, want, rel=1e-5), where
            continue
        # The reference ran out of steps crawling along the b -> 0 valley (6 fits), short
        # of the minimum. The exact minimum nearest its b decides, 10000 times more tightly.
        fallbacks += 1
        assert _same_fit(got, _exact_fit(used, want.b), rel=1e-9), where
    assert (fits, fallbacks) == (400, 6)


def test_every_fit_is_a_profile_minimum_within_150_evaluations():
    # Oracle-free: (a, c) solve the inner normal equations, and b is a stationary point of
    # the profile or sits at a bound where the profile's slope points outward. Each gradient
    # component is scaled by its Jacobian column and the data, so rounding reads about 1e-15.
    for where, points, average_first in _fixtures():
        used = average_points(points) if average_first else points
        model = fit_curve(used)
        assert model.converged, where
        assert model.iterations <= 150, where
        jac, r = _jacobian_residual(model, used)
        y = np.array([p.exact_match for p in used], dtype=float)
        ga, gb, gc = jac.T @ r / (np.linalg.norm(jac, axis=0) * np.linalg.norm(y))
        assert abs(ga) < 1e-12 and abs(gc) < 1e-12, where
        if model.b == B_MIN:
            assert gb > -1e-12, where
        elif model.b == B_MAX:
            assert gb < 1e-12, where
        else:
            assert abs(gb) < 1e-12, where


def test_fit_stops_at_b_min_instead_of_crawling_along_the_valley():
    # Near b = 0, a / x**b + c is close to (a + c) - a*b*ln x, so a and c trade off along a
    # valley; the profile's slope at B_MIN points outward, so the fit returns B_MIN itself.
    model = fit_curve(_noisy_fixture(15, 0.5))
    assert model.b == B_MIN
    assert model.converged


def test_fit_at_the_rounding_floor_reports_converged():
    assert fit_curve(_noisy_fixture(16, 0.5)).converged


@pytest.mark.parametrize("points", [
    [EfficiencyPoint(5e-324, 10.0), EfficiencyPoint(1e-300, 20.0), EfficiencyPoint(1, 70),
     EfficiencyPoint(10, 85), EfficiencyPoint(100, 95)],
    [EfficiencyPoint(5e-324, 90.0), EfficiencyPoint(1e-300, 20.0), EfficiencyPoint(1, 70)],
    [EfficiencyPoint(5e-324, 100.0), EfficiencyPoint(1e-300, 0.0),
     EfficiencyPoint(1e-100, 100.0), EfficiencyPoint(100, 0.0)],
    [EfficiencyPoint(x, 100.0 - x) for x in (1, 5, 25, 100)],
    [EfficiencyPoint(x, 0.0 if x < 50 else 100.0) for x in (1, 5, 25, 60, 100)],
    [EfficiencyPoint(5e-324, 100.0), EfficiencyPoint(1e-323, 50.0),
     EfficiencyPoint(1.5e-323, 0.0)],
    [EfficiencyPoint(x, 0.0) for x in (5e-324, 1e-300, 1)],
    # x ** -b is about 1e154 at two points for b near 0.51, so sum(x ** -2b) overflows
    [EfficiencyPoint(1e-300, 50.0), EfficiencyPoint(1e-300, 60.0), EfficiencyPoint(1, 70),
     EfficiencyPoint(100, 90)],
    # residuals of about -1e154 at two points for b near 0.48, so their sum of squares overflows
    [EfficiencyPoint(5e-324, 0.0), EfficiencyPoint(5e-324, 10.0), EfficiencyPoint(1, 70),
     EfficiencyPoint(100, 90)],
], ids=["subnormal-x", "subnormal-x-falling", "subnormal-x-zigzag", "decreasing", "step",
        "all-subnormal-x-falling", "flat-at-tiny-x", "overflowing-normal-equations",
        "overflowing-sum-of-squares"])
def test_fit_edge_cases_return_a_model_or_fit_error(points):
    # Python's ** raises OverflowError where numpy returned inf; the fit must score such a
    # b as infinite SSE instead of letting the exception out.
    for prepare in (list, average_points):
        try:
            model = fit_curve(prepare(points))
        except FitError:
            continue
        assert isinstance(model, CurveModel)
        assert all(map(math.isfinite, (model.a, model.b, model.c, model.sse)))
