"""Subset-size schedules and the two target-domain sampling algorithms.

Walks through the first stage of the workflow: pick subset sizes on the
logarithmic schedule, then draw uniform and SPIS subsets from a toy weather
domain and inspect their realized sizes and label coverage.
"""

from collections import Counter

from dataeff import CorpusTable, SubsetSpec, make_schedule, sample, sample_nested

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
train = table.row_ids("weather", "train")

# Uniform sampling: size is a fixed percent of the domain, known in advance.
for k in (1, 12, 60):
    subset = sample(table, SubsetSpec("weather", "uniform", k, seed=7))
    count = len(subset.row_ids)
    print(f"uniform {k:>3}% -> {count:>3} rows ({100 * count / len(train):.1f}%)")
print()

# SPIS sampling: size is data-dependent; the guarantee is per-label coverage,
# counted here from each kept row's labels.
for k in (1, 5, 25):
    subset = sample(table, SubsetSpec("weather", "spis", k, seed=7))
    count = len(subset.row_ids)
    coverage = dict(sorted(Counter(
        label for pos in subset.row_ids for label in table.labels[pos]).items()))
    print(f"spis k={k:>2} -> {count:>3} rows ({100 * count / len(train):.1f}%), "
          f"coverage {coverage}")

print()
print("Same spec, same corpus, same subset every time:")
a = sample(table, SubsetSpec("weather", "uniform", 12, seed=7))
b = sample(table, SubsetSpec("weather", "uniform", 12, seed=7))
print("  identical row ids:", a.row_ids == b.row_ids)

# One seed draws one order of the domain's rows, and sample_nested cuts every
# size from it, so a seed's subsets nest: adding data only ever adds rows.
small, large = sample_nested(table, "weather", "uniform", 7, [7, 12])
print("  7% uniform subset is a prefix of the 12% one:",
      large.row_ids[:len(small.row_ids)] == small.row_ids)
