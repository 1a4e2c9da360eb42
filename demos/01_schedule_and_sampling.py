"""Subset-size schedules and the two target-domain samplers.

Walks through the first stage of the workflow: pick subset sizes on the
logarithmic schedule, then draw uniform and SPIS subsets from a toy weather
domain and inspect their realized sizes and label coverage.
"""

from dataeff import (
    CorpusTable,
    SubsetSpec,
    make_schedule,
    spis_sample,
    subset_size_report,
    uniform_sample,
)

# The default 10-point schedule: 0% and 100% anchor the endpoints and the
# interior sizes are spaced along a logarithmic curve, matching how exact
# match saturates with more in-domain data.
schedule = make_schedule(10)
print("schedule raw :", [round(v, 2) for v in schedule.raw])
print("schedule size:", list(schedule.sizes))
print()

# A toy target domain: 600 weather train rows, three intents with skewed
# frequency. A row is a (domain, utterance, semantic parse, split) tuple.
rows = []
for i in range(480):
    rows.append(("weather", f"forecast {i}",
                 "[IN:GET_WEATHER forecast [SL:LOCATION here ] ]", "train"))
for i in range(100):
    rows.append(("weather", f"sunrise {i}",
                 "[IN:GET_SUNRISE when [SL:DATE_TIME tomorrow ] ]", "train"))
for i in range(20):
    rows.append(("weather", f"sunset {i}", "[IN:GET_SUNSET when ]", "train"))
table = CorpusTable(rows)

# Uniform sampling: size is a fixed percent of the domain, known in advance.
for k in (1, 12, 60):
    subset = uniform_sample(table, SubsetSpec("weather", "uniform", k, seed=7))
    report = subset_size_report(subset, table)
    print(f"uniform {k:>3}% -> {report.count:>3} rows ({report.percent:.1f}%)")
print()

# SPIS sampling: size is data-dependent; the guarantee is per-label coverage.
for k in (1, 5, 25):
    subset = spis_sample(table, SubsetSpec("weather", "spis", k, seed=7))
    report = subset_size_report(subset, table)
    coverage = {label: count for label, count in sorted(report.label_counts.items())}
    print(f"spis k={k:>2} -> {report.count:>3} rows ({report.percent:.1f}%), coverage {coverage}")

print()
print("Same spec, same corpus, same subset every time:")
a = uniform_sample(table, SubsetSpec("weather", "uniform", 12, seed=7))
b = uniform_sample(table, SubsetSpec("weather", "uniform", 12, seed=7))
print("  identical row ids:", a.row_ids == b.row_ids)
