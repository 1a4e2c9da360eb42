"""Seed stability of the protocol, and ranking models by data efficiency.

First: repeat the simulated protocol with three random seeds and check how
much the per-seed curves (and their inverse queries) move. Second: compare
two simulated "parsers" head to head, and print the packaged reference table
measured on production parsers at full scale.
"""

from dataeff import (
    CorpusTable,
    SimulatedRunner,
    aggregate_seeds,
    build_manifests,
    compare_models,
    fit_curve,
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

aggregate = aggregate_seeds(points, em_targets=(85.0, 90.0))
print("per-size seed spread (EM):")
for k, stats in aggregate.per_percent.items():
    print(f"  {k:>5.1f}% : mean {stats.mean:6.2f}  min {stats.min:6.2f}  "
          f"max {stats.max:6.2f}  ({stats.seed_count} seeds)")
print()
print("inverse-query spread across per-seed curves:")
for target, spread in aggregate.inversion_spread.items():
    answers = ", ".join(f"seed {s}: {v:.2f}%" for s, v in spread.per_seed.items())
    print(f"  {target:.0f}% EM -> {answers}  (spread {spread.spread:.2f} pts)")
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
