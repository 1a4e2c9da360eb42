import itertools
import json
import math
import random
from collections import Counter

import pytest

from dataeff import cli
from dataeff.corpus import CorpusTable
from dataeff.errors import SamplingError, UnknownDomainError
from dataeff.frames import canonical_frame
from dataeff.jsonio import dumps, from_dict
from dataeff.sampling import (
    Subset,
    SubsetSpec,
    make_schedule,
    sample,
    sample_nested,
    uniform_size,
)

from conftest import make_rows, random_frame, write_tsv
from reference_frames import serialize_tree, tree_labels

# Published schedule for n=10: raw curve values and their ceiled sizes.
RAW_N10 = (0.00, 0.67, 1.79, 3.66, 6.78, 11.99, 20.69, 35.22, 59.48, 100.00)
SIZES_N10 = (0, 1, 2, 4, 7, 12, 21, 36, 60, 100)


def test_schedule_n10_reference_values():
    schedule = make_schedule(10)
    assert schedule.sizes == SIZES_N10
    for got, want in zip(schedule.raw, RAW_N10):
        assert abs(got - want) <= 0.005
    assert schedule.raw[0] == 0.0
    assert schedule.raw[-1] == 100.0


def test_schedule_g5():
    assert make_schedule(10).raw[4] == pytest.approx(6.78, abs=0.01)


def test_schedule_n2_endpoints():
    assert make_schedule(2).sizes == (0, 100)


def test_schedule_endpoints_are_exact_for_large_n():
    schedule = make_schedule(262144)  # base ** (n - 1) misses 101 by about 1e-9 here
    assert (schedule.raw[0], schedule.raw[-1], schedule.sizes[-1]) == (0.0, 100.0, 100)


def test_schedule_rejects_small_n():
    with pytest.raises(SamplingError):
        make_schedule(1)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 17, 40])
def test_schedule_monotone_for_any_n(n):
    schedule = make_schedule(n)
    assert len(schedule.raw) == n
    assert all(a < b for a, b in zip(schedule.raw, schedule.raw[1:]))
    assert all(a <= b for a, b in zip(schedule.sizes, schedule.sizes[1:]))
    assert schedule.raw[0] == 0.0 and schedule.raw[-1] == 100.0
    assert schedule.sizes[0] == 0 and schedule.sizes[-1] == 100


def test_spec_validation():
    with pytest.raises(SamplingError):
        SubsetSpec("weather", "fancy", 10, 0)
    with pytest.raises(SamplingError):
        SubsetSpec("weather", "uniform", 101, 0)
    with pytest.raises(SamplingError):
        SubsetSpec("weather", "spis", 0, 0)
    with pytest.raises(SamplingError):
        SubsetSpec("weather", "spis", 1.5, 0)
    with pytest.raises(SamplingError):
        SubsetSpec("weather", "uniform", 10, -1)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 2.5, 0.5])
def test_spis_parameter_must_be_a_whole_number(k):
    with pytest.raises(SamplingError, match=f"^spis parameter must be an integer >= 1, got {k}$"):
        SubsetSpec("weather", "spis", k, 0)


def test_uniform_size_arithmetic():
    assert uniform_size(12, 1000) == 120
    assert uniform_size(1, 1000) == 10
    assert uniform_size(1, 999) == 10  # ceil(9.99)
    assert uniform_size(0, 1000) == 0
    assert uniform_size(100, 37) == 37
    assert uniform_size(0.5, 10) == 1  # ceil(0.05)
    # For a whole percent the float formula must equal the exact integer ceiling.
    for percent in range(101):
        for population in range(3001):
            assert uniform_size(percent, population) == -(-percent * population // 100)


def test_uniform_sample_size_and_uniqueness(weather_table):
    subset = sample(weather_table, SubsetSpec("weather", "uniform", 12, 1))
    assert len(subset.row_ids) == 120
    assert len(set(subset.row_ids)) == 120
    train = set(weather_table.row_ids("weather", "train"))
    assert set(subset.row_ids) <= train


def test_uniform_zero_percent(weather_table):
    subset = sample(weather_table, SubsetSpec("weather", "uniform", 0, 1))
    assert subset.row_ids == ()


def test_uniform_full_domain_shuffled(weather_table):
    subset = sample(weather_table, SubsetSpec("weather", "uniform", 100, 1))
    train = weather_table.row_ids("weather", "train")
    assert sorted(subset.row_ids) == sorted(train)
    assert subset.row_ids != train  # order is shuffled, not file order


def test_uniform_deterministic(weather_table):
    spec = SubsetSpec("weather", "uniform", 12, 42)
    a = sample(weather_table, spec)
    b = sample(weather_table, spec)
    assert a.row_ids == b.row_ids
    assert dumps(a) == dumps(b)


def test_uniform_seeds_differ(weather_table):
    a = sample(weather_table, SubsetSpec("weather", "uniform", 12, 1))
    b = sample(weather_table, SubsetSpec("weather", "uniform", 12, 2))
    assert a.row_ids != b.row_ids


def test_uniform_unknown_domain(weather_table):
    with pytest.raises(UnknownDomainError):
        sample(weather_table, SubsetSpec("desert", "uniform", 12, 1))


def test_uniform_empty_train_split():
    table = CorpusTable([("weather", "hi", "[IN:GET_WEATHER hi ]", "test")])
    with pytest.raises(SamplingError):
        sample(table, SubsetSpec("weather", "uniform", 10, 1))


def test_subset_json_round_trip(weather_table):
    subset = sample(weather_table, SubsetSpec("weather", "uniform", 7, 9))
    again = from_dict(Subset, json.loads(dumps(subset)), "subset.json")
    assert again == subset


def _single_intent_table(labels):
    rows = [
        ("toy", f"utt {i}", f"[IN:{label} x ]", "train")
        for i, label in enumerate(labels)
    ]
    return CorpusTable(rows)


def test_spis_distinct_intents_k1():
    table = _single_intent_table(["AAA", "BBB", "CCC", "DDD"])
    subset = sample(table, SubsetSpec("toy", "spis", 1, 0))
    assert sorted(subset.row_ids) == [0, 1, 2, 3]


def test_spis_k_above_all_counts_selects_everything():
    table = _single_intent_table(["AAA", "AAA", "BBB"])
    subset = sample(table, SubsetSpec("toy", "spis", 50, 0))
    assert sorted(subset.row_ids) == [0, 1, 2]


def _greedy_reference(frames, order, k):
    """Independent greedy replay used as the oracle."""
    seen = Counter()
    picked = []
    for idx in order:
        labels = Counter(frames[idx])
        if any(seen[lab] < k for lab in labels):
            picked.append(idx)
            seen.update(labels)
    return picked, seen


def test_spis_six_row_fixture_against_all_orderings():
    # Labels AAA x4 and BBB x2 across six rows; at k=2 the greedy pass stops
    # early instead of taking the whole domain.
    labels = ["AAA", "AAA", "AAA", "AAA", "BBB", "BBB"]
    table = _single_intent_table(labels)
    frames = [canonical_frame(parse)[1] for parse in table.parse]
    totals = Counter()
    for labels in frames:
        totals.update(labels)
    k = 2

    sizes = set()
    for order in itertools.permutations(range(6)):
        picked, seen = _greedy_reference(frames, order, k)
        sizes.add(len(picked))
        for label, total in totals.items():
            assert seen[label] >= min(k, total)

    subset = sample(table, SubsetSpec("toy", "spis", k, 3))
    assert len(subset.row_ids) < len(table)  # stopped early
    assert len(subset.row_ids) in sizes
    achieved = _label_counts(subset, table)
    for label, total in totals.items():
        assert achieved[label] >= min(k, total)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_spis_coverage_property(k):
    rng = random.Random(1000 + k)
    for trial in range(25):
        frames = [random_frame(rng, max_depth=3, max_branch=3)
                  for _ in range(rng.randint(5, 40))]
        rows = [
            ("rand", f"u{i}", serialize_tree(frame), "train")
            for i, frame in enumerate(frames)
        ]
        table = CorpusTable(rows)
        totals = Counter()
        for frame in frames:
            totals.update(tree_labels(frame))
        subset = sample(table, SubsetSpec("rand", "spis", k, trial))
        achieved = _label_counts(subset, table)
        for label, total in totals.items():
            assert achieved[label] >= min(k, total), (label, k, trial)


def test_spis_deterministic():
    table = _single_intent_table(["AAA", "AAA", "BBB", "CCC", "CCC", "DDD"])
    spec = SubsetSpec("toy", "spis", 1, 77)
    assert sample(table, spec).row_ids == sample(table, spec).row_ids


def _permuted_tables(frames):
    """A table of the frames in every file order: each seeded order of them is then drawn."""
    for perm in itertools.permutations(range(len(frames))):
        yield CorpusTable([("toy", f"u{i}", frames[i], "train") for i in perm])


def _random_frames_table(rng, n):
    # Repeated slots make a label occur more than once in a row.
    fixed = ["[IN:A [SL:B x ] [SL:B y ] ]", "[IN:A [SL:B [IN:A z ] ] ]", "[IN:C [SL:B w ] ]"]
    frames = [rng.choice(fixed) if rng.random() < 0.4
              else serialize_tree(random_frame(rng, max_depth=3, max_branch=3))
              for _ in range(n)]
    return CorpusTable([("rand", f"u{i}", frame, "train") for i, frame in enumerate(frames)])


def _check_spis_against_the_greedy_pass(table, domain, seed, ks):
    # At k = the row count every threshold qualifies, so that subset is the whole order.
    order = sample(table, SubsetSpec(domain, "spis", len(table), seed)).row_ids
    assert sorted(order) == sorted(table.row_ids(domain, "train"))
    frames = {pos: table.labels[pos] for pos in order}
    for k in ks:
        picked, _ = _greedy_reference(frames, order, k)
        assert sample(table, SubsetSpec(domain, "spis", k, seed)).row_ids == tuple(picked)


def test_spis_threshold_rule_is_the_greedy_pass_on_every_ordering():
    frames = ["[IN:AAA x ]"] * 4 + ["[IN:BBB x ]"] * 2
    for table in _permuted_tables(frames):
        _check_spis_against_the_greedy_pass(table, "toy", 3, range(1, 7))


def test_spis_threshold_rule_is_the_greedy_pass_with_repeated_labels():
    rng = random.Random(2024)
    for trial in range(40):
        table = _random_frames_table(rng, rng.randint(5, 40))
        _check_spis_against_the_greedy_pass(table, "rand", trial, range(1, 7))


def test_subsets_of_one_seed_nest(weather_table):
    for seed in (0, 1, 2):
        uniform = [sample(weather_table, SubsetSpec("weather", "uniform", k, seed)).row_ids
                   for k in make_schedule(10).sizes]
        for smaller, larger in zip(uniform, uniform[1:]):
            assert larger[:len(smaller)] == smaller
    rng = random.Random(7)
    for seed in (0, 1, 2):
        table = _random_frames_table(rng, 60)
        spis = [set(sample(table, SubsetSpec("rand", "spis", k, seed)).row_ids)
                for k in range(1, 8)]
        for smaller, larger in zip(spis, spis[1:]):
            assert smaller <= larger


def test_sample_nested_equals_one_sample_per_size(weather_table):
    rand = _random_frames_table(random.Random(11), 50)
    for table, domain, algorithm, sizes in (
        (weather_table, "weather", "uniform", [12, 0, 100, 7, 12, 0.5]),
        (rand, "rand", "spis", [3, 1, 50, 2, 3]),
    ):
        nested = sample_nested(table, domain, algorithm, 9, sizes)
        assert nested == [sample(table, SubsetSpec(domain, algorithm, k, 9)) for k in sizes]
    assert sample_nested(weather_table, "weather", "spis", 9, []) == []


def _label_counts(subset, table):
    """How often each ontology label occurs in the subset's rows."""
    return Counter(label for pos in subset.row_ids for label in table.labels[pos])


def _sample_report(tmp_path, capsys, *args):
    """What `dataeff sample` reports on stderr; alarm has test rows but no train rows."""
    rows = make_rows("weather", 1000) + make_rows("weather", 60, split="test")
    rows += make_rows("alarm", 20, split="test", intent="IN:CREATE_ALARM", token="alarm")
    corpus = write_tsv(tmp_path / "corpus.tsv", rows)
    argv = ["sample", "--corpus", corpus, *args, "--out", tmp_path / "subset.json"]
    assert cli.main([str(arg) for arg in argv]) == 0
    return capsys.readouterr().err


def test_size_report_uniform(tmp_path, capsys):
    report = _sample_report(tmp_path, capsys, "--domain", "weather", "--size", 12, "--seed", 1)
    assert report == "uniform subset: 120 rows (12.00% of weather train)\n"


def test_size_report_empty(tmp_path, capsys):
    report = _sample_report(tmp_path, capsys, "--domain", "weather", "--size", 0)
    assert report == "uniform subset: 0 rows (0.00% of weather train)\n"
    # A domain without train rows reports 0% rather than dividing by zero.
    report = _sample_report(tmp_path, capsys, "--domain", "alarm", "--algorithm", "spis",
                            "--size", 1)
    assert report == "spis subset: 0 rows (0.00% of alarm train)\n"
