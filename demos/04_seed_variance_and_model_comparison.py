"""Seed stability of the protocol, and ranking models by data efficiency.

First: repeat the simulated protocol with three random seeds and check how
much the per-seed curves (and their inverse queries) move. Second: compare
two simulated "parsers" head to head, and print the packaged reference table
measured on production parsers at full scale.
"""

from dataeff import (
    CorpusTable,
    SimulatedRunner,
    build_manifests,
    compare_models,
    fit_curve,
    invert,
    ledger_to_curve,
    make_schedule,
    reference_comparison,
    run_protocol,
)

rows = [("reminder", f"remind {i}", "[IN:CREATE_REMINDER note ]", "train")
        for i in range(600)]
rows += [("alarm", f"wake {i}", "[IN:CREATE_ALARM wake ]", "train")
         for i in range(1500)]
table = CorpusTable(rows)
schedule = make_schedule(10)

# Three independent seeds, noisy runner: discrete points wobble ~ +-1 EM.
manifests = build_manifests(table, "reminder", schedule, seeds=(0, 1, 2))
runner = SimulatedRunner(truth=(-30.0, 0.4, 96.5), noise_sigma=0.5)
points = ledger_to_curve(run_protocol(manifests, runner))

# One curve per seed: how far apart the per-seed answers land is how much the
# protocol's conclusion depends on the seed.
models = {seed: fit_curve([p for p in points if p.seed == seed]) for seed in (0, 1, 2)}
print("per-seed curves:")
for seed, model in models.items():
    print(f"  seed {seed}: a {model.a:7.2f}  b {model.b:5.3f}  c {model.c:6.2f}")
print()
print("inverse-query spread across per-seed curves:")
for target in (85.0, 90.0):
    answers = {seed: invert(model, target).percent for seed, model in models.items()}
    text = ", ".join(f"seed {s}: {v:.2f}%" for s, v in answers.items())
    spread = max(answers.values()) - min(answers.values())
    print(f"  {target:.0f}% EM -> {text}  (spread {spread:.2f} pts)")
print()

# Model comparison: same asymptote, different saturation speed b. The faster
# model reaches every reachable target with less data.
curves = {}
for model_id, truth in (("baseline", (-27.0, 0.30, 96.0)), ("span-based", (-27.0, 0.55, 96.0))):
    ms = build_manifests(table, "reminder", schedule, seeds=(0,), model_id=model_id)
    sim = SimulatedRunner(truth=truth)
    curves[model_id] = fit_curve(ledger_to_curve(run_protocol(ms, sim)))

print(compare_models(curves, [80.0, 90.0, 95.0]).to_text())

# Reference numbers from full-scale fine-tuning of production parsers
# (packaged data; the simulator cannot and does not reproduce these).
print("packaged reference, weather domain:")
print(reference_comparison("weather").to_text())
