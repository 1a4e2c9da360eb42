"""Correlating data efficiency with intent complexity.

Each intent carries a difficulty class (none < closed < semi < open),
inherited from its hardest slot. Running the protocol with per-example
predictions lets us break exact match down by intent, then average intents
within each class: harder classes should sit lower at small subset sizes.
Both steps return EfficiencyPoints, the same points the curve path fits.
"""

from dataeff import (
    CorpusTable,
    SimulatedRunner,
    build_manifests,
    ledger_to_curve,
    make_schedule,
    packaged_annotations,
    per_class_curves,
    per_intent_points,
    run_protocol,
)

classes = packaged_annotations("music")  # {intent label: class name}
print("packaged music annotations:")
for intent, cls in sorted(classes.items()):
    print(f"  {intent:<32} {cls}")
print()

# A music corpus whose test split has enough rows per intent (the analysis
# drops intents with fewer than 10 test occurrences).
rows = []
for intent in ("IN:PLAY_MUSIC", "IN:STOP_MUSIC", "IN:CREATE_PLAYLIST_MUSIC"):
    for i in range(120):
        rows.append(("music", f"{intent} {i}", f"[{intent} x{i} ]", "train"))
    for i in range(25):
        rows.append(("music", f"{intent} test {i}", f"[{intent} y{i} ]", "test"))
rows += [("event", f"event {i}", "[IN:GET_EVENT go ]", "train")
         for i in range(400)]
table = CorpusTable(rows)

manifests = build_manifests(table, "music", make_schedule(8), seeds=(0,))
# Given the corpus table, the simulator also predicts a frame for each test row.
runner = SimulatedRunner(truth=(-35.0, 0.45, 95.0), noise_sigma=0.0, em_at_zero=10.0,
                         table=table)
ledger = run_protocol(manifests, runner)
print(f"{len(ledger.ok_entries)} runs with per-example predictions")

per_intent = per_intent_points(ledger, table)
print("intents kept for analysis:", ", ".join(sorted(per_intent)))
print()

curves = per_class_curves(per_intent, classes)
print("class      subset%   mean EM")
for cls, series in curves.items():
    if not series:
        print(f"{str(cls):<9}  (no intents in this class)")
        continue
    for p in series:
        print(f"{str(cls):<9}  {p.subset_percent:>6.1f}   {p.exact_match:6.2f}")

# Overall curve for reference.
points = ledger_to_curve(ledger)
overall = {p.subset_percent: p.exact_match for p in points}
print()
print("overall EM by subset size:", {k: round(v, 1) for k, v in sorted(overall.items())})
