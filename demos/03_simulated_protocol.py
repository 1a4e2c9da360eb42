"""The full four-stage protocol, end to end, with the simulated runner.

Builds a two-domain corpus, creates one training manifest per schedule size,
"fine-tunes" via the simulator (truth curve + noise), collects the ledger,
fits the curve, and writes an SVG/CSV report with query guide lines into
demo_out/.
"""

from pathlib import Path

from dataeff import (
    CorpusTable,
    ReportSpec,
    SimulatedRunner,
    build_manifests,
    fit_curve,
    invert,
    ledger_to_curve,
    make_schedule,
    run_protocol,
    write_report,
)

# Target domain "weather" plus a high-resource source domain "alarm".
rows = []
for i in range(800):
    rows.append(("weather", f"forecast {i}",
                 "[IN:GET_WEATHER forecast [SL:LOCATION here ] ]", "train"))
for i in range(60):
    rows.append(("weather", f"eval {i}", "[IN:GET_WEATHER check ]", "eval"))
for i in range(120):
    rows.append(("weather", f"test {i}", "[IN:GET_WEATHER test ]", "test"))
for i in range(2000):
    rows.append(("alarm", f"wake {i}", "[IN:CREATE_ALARM wake ]", "train"))
table = CorpusTable(rows)

# Stage 1: one manifest per (schedule size, seed).
manifests = list(build_manifests(table, "weather", make_schedule(10), seeds=(0,)))
print(f"built {len(manifests)} manifests; subset percents:",
      [m.subset_percent for m in manifests])
biggest = manifests[-1]
print(f"each mixes source + subset rows, e.g. {biggest.run_id}: "
      f"{len(biggest.train_rows)} train rows, {len(biggest.test_rows)} test rows")
print()

# Stage 2: the runner. Here a simulator with a known truth curve stands in
# for GPU fine-tuning; exchange it for CommandRunner("train.sh") in real use.
runner = SimulatedRunner(truth=(-27.26, 0.35, 97.79), noise_sigma=0.4, em_at_zero=8.0, seed=1)
ledger = run_protocol(manifests, runner, jobs=4)
print(f"ledger: {len(ledger.ok_entries)} ok, {len(ledger.failed_entries)} failed")

# Stage 3: discrete points -> continuous curve.
points = ledger_to_curve(ledger)
for p in sorted(points, key=lambda p: p.subset_percent):
    print(f"  {p.subset_percent:>5.1f}% -> {p.exact_match:.2f} EM")
model = fit_curve(points)
print(f"fit: a={model.a:.3f} b={model.b:.3f} c={model.c:.3f} (truth -27.26/0.35/97.79)")
print()

# Stage 4: inverse queries, plus a plot for the report deck.
for target in (80.0, 90.0):
    print(f"{target:.0f}% EM needs {invert(model, target).percent:.2f}% of target data")

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)
spec = ReportSpec(points=tuple(points), model=model, queries=(80.0, 90.0))
for path in write_report(spec, out_dir / "weather_efficiency"):
    print(f"wrote {path}")
