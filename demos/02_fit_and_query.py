"""Fitting the efficiency curve and answering inverse queries.

Nine discrete (subset %, exact match %) observations are fitted with
h(x) = a / x**b + c, then the closed-form inverse answers "how much target
data is needed for y% exact match".
"""

from dataeff import EfficiencyPoint, evaluate, fit_curve, invert

# Discrete observations, shaped like a real fine-tuning sweep.
observed = [
    (1, 70.5), (2, 75.9), (4, 80.8), (7, 84.1), (12, 86.2),
    (21, 88.6), (36, 90.3), (60, 91.4), (100, 92.4),
]
points = [EfficiencyPoint(x, y) for x, y in observed]

model = fit_curve(points)
print(f"fitted h(x) = {model.a:.2f} / x**{model.b:.3f} + {model.c:.2f}")
print(f"sse={model.sse:.4f}  iterations={model.iterations}  converged={model.converged}")
print(f"well-formed saturating curve: {model.well_formed}")
print()

# The curve interpolates between the observed sizes and extrapolates to any
# subset percent > 0.
for x in (1, 3, 10, 50, 100):
    print(f"h({x:>3}) = {evaluate(model, x):.2f} EM")
print()

# Inverse queries: the whole point of the exercise. A target at or above the
# fitted ceiling c is never reached, no matter the data: its answer has no percent.
# cells() gives each answer in the words `dataeff query` prints.
print(f"{'em':>4}  {'required_subset_%':>17}  note")
for target in (80, 85, 90, 99):
    percent, note = invert(model, target).cells(".2f", model.c)
    print(f"{target:>4}  {percent or '-':>17}  {note}".rstrip())
