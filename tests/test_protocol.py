import copy
import json
import os
import pickle
import random
import sys
import threading
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from dataeff.corpus import CorpusTable
from dataeff.curve import fit_curve
from dataeff.errors import ProtocolError, RunnerError, SamplingError, UnknownDomainError
from dataeff.frames import canonical_frame, exact_match
from dataeff.jsonio import dumps, from_dict
from dataeff.protocol import (
    CommandRunner,
    Ledger,
    LedgerEntry,
    Manifest,
    Protocol,
    RunResult,
    SimulatedRunner,
    build_manifests,
    ledger_to_curve,
    load_ledger,
    run_protocol,
    save_ledger,
)
from dataeff.sampling import Schedule, make_schedule, sample

from conftest import make_rows, random_frame, row_keys
from reference_frames import serialize_tree

TRUTH = (-27.26, 0.35, 97.79)


def h(x, theta=TRUTH):
    a, b, c = theta
    return a / x**b + c


@pytest.fixture
def manifests(weather_table):
    return list(build_manifests(weather_table, "weather", make_schedule(10), seeds=(0,)))


def test_build_manifests_one_per_size(manifests):
    assert len(manifests) == 10
    assert [m.subset_percent for m in manifests] == [0, 1, 2, 4, 7, 12, 21, 36, 60, 100]
    assert len({m.run_id for m in manifests}) == 10


def test_build_manifests_seed_product(weather_table):
    manifests = list(build_manifests(weather_table, "weather", make_schedule(10), seeds=(0, 1, 2)))
    assert len(manifests) == 30
    assert len({m.run_id for m in manifests}) == 30
    # seeds is read once, so an iterator of unique seeds gives the same manifests
    once = build_manifests(weather_table, "weather", make_schedule(10), seeds=iter((0, 1, 2)))
    assert [m.run_id for m in once] == [m.run_id for m in manifests]


@pytest.mark.parametrize("algorithm", ["uniform", "spis"])
def test_build_manifests_draws_each_distinct_size_once(weather_table, algorithm):
    schedule = make_schedule(20)  # ceiled sizes 0, 1, 1, 2, 2, 3, ...
    assert len(set(schedule.sizes)) < len(schedule.sizes)
    sizes = [k for k in dict.fromkeys(schedule.sizes) if algorithm == "uniform" or k >= 1]
    manifests = list(build_manifests(weather_table, "weather", schedule, algorithm, seeds=(0, 1)))
    assert [(m.subset.size_param, m.subset.seed) for m in manifests] == [
        (k, seed) for k in sizes for seed in (0, 1)
    ]
    assert len({m.run_id for m in manifests}) == len(manifests)


@pytest.mark.parametrize("algorithm", ["uniform", "spis"])
def test_build_manifests_names_each_run_as_its_protocol_does(weather_table, algorithm):
    manifests = list(build_manifests(weather_table, "weather", make_schedule(4), algorithm,
                                     seeds=(0, 7), model_id="m"))
    for m in manifests:
        assert m.run_id == Protocol.of(m).run_id(m.subset.size_param, m.subset.seed)
    first = 0 if algorithm == "uniform" else 4  # make_schedule(4).sizes is (0, 4, 21, 100)
    assert [m.run_id for m in manifests[:2]] == [f"m.weather.{algorithm}{first}.s0",
                                                 f"m.weather.{algorithm}{first}.s7"]


@pytest.mark.parametrize("algorithm", ["uniform", "spis"])
def test_build_manifests_subsets_are_single_draws_that_nest(algorithm):
    rng = random.Random(5)
    rows = [("rand", f"u{i}", serialize_tree(random_frame(rng, max_depth=3)), "train")
            for i in range(300)]
    table = CorpusTable(rows + make_rows("alarm", 50, intent="IN:CREATE_ALARM"))
    manifests = list(build_manifests(table, "rand", make_schedule(10), algorithm, seeds=(0, 1, 2)))
    for m in manifests:
        assert m.subset_rows == sample(table, m.subset).row_ids
    for seed in (0, 1, 2):
        subsets = [m.subset_rows for m in manifests if m.subset.seed == seed]
        assert len(set(subsets)) > 3
        for smaller, larger in zip(subsets, subsets[1:]):
            if algorithm == "uniform":
                assert larger[:len(smaller)] == smaller
            else:
                assert set(smaller) <= set(larger)


def test_build_manifests_duplicate_seeds_rejected(weather_table):
    with pytest.raises(ProtocolError):
        build_manifests(weather_table, "weather", make_schedule(10), seeds=(1, 1))


def test_zero_percent_manifest_is_source_only(weather_table, manifests):
    zero = manifests[0]
    keys = row_keys(weather_table)
    assert zero.subset_rows == ()
    assert all(keys[i][0] != "weather" for i in zero.train_rows)


def test_manifest_disjointness_invariants(weather_table, manifests):
    target_train = set(weather_table.row_ids("weather", "train"))
    keys = row_keys(weather_table)
    for m in manifests:
        assert not set(m.train_rows) & set(m.test_rows)
        assert set(m.subset_rows) <= target_train
        source_part = set(m.train_rows) - set(m.subset_rows)
        assert all(keys[i][0] != "weather" for i in source_part)
        assert all(keys[i] == ("weather", "test") for i in m.test_rows)


def test_manifest_eval_rows_cover_both_sides(weather_table, manifests):
    keys = row_keys(weather_table)
    eval_domains = {keys[i][0] for i in manifests[3].eval_rows}
    assert eval_domains == {"weather", "alarm"}
    assert all(keys[i][1] == "eval" for i in manifests[3].eval_rows)


def test_build_manifests_spis_skips_zero(weather_table):
    manifests = list(build_manifests(
        weather_table, "weather", make_schedule(10), algorithm="spis", seeds=(0,)
    ))
    assert len(manifests) == 9
    assert all(m.subset.algorithm == "spis" for m in manifests)
    assert all(m.subset_percent > 0 for m in manifests)


def test_manifest_json_round_trip(manifests):
    m = manifests[5]
    again = from_dict(Manifest, json.loads(dumps(m)), "manifest.json")
    assert again == m
    assert type(again.subset_rows) is tuple and type(m.subset_rows) is not tuple
    assert hash(again) == hash(m) and again.train_rows == m.train_rows
    assert replace(m, model_id="other").subset_rows == again.subset_rows


def test_the_readme_names_every_manifest_key_an_external_runner_reads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## External runner contract\n", 1)[1].split("\n## ", 1)[0]
    assert [f.name for f in fields(Manifest) if f"`{f.name}`" not in section] == []


def test_a_lazy_manifest_pickles_and_copies_as_plain_tuples(weather_table):
    # A runner that hands manifests to a process pool pickles them.
    m = list(build_manifests(weather_table, "weather", make_schedule(10), seeds=(0,)))[5]
    rows = sample(weather_table, m.subset).row_ids
    eager = (rows, weather_table.row_ids("alarm", "train") + rows)
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert type(copied.subset_rows) is tuple and type(copied.train_rows) is tuple
        assert (copied.subset_rows, copied.train_rows) == eager and copied == m
    fields = asdict(m)
    assert (fields["subset_rows"], fields["train_rows"]) == eager
    assert type(fields["subset_rows"]) is tuple and type(fields["train_rows"]) is tuple


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_uniform_seed_is_drawn_once_when_a_runner_first_reads_it(weather_table, draws, jobs):
    manifests = list(build_manifests(weather_table, "weather", make_schedule(10),
                                     seeds=(0, 1, 2)))
    source_train = weather_table.row_ids("alarm", "train")
    sizes = [0, 10, 20, 40, 70, 120, 210, 360, 600, 1000]
    assert [len(m.subset_rows) for m in manifests] == [k for k in sizes for _ in range(3)]
    assert [len(m.train_rows) - len(source_train) for m in manifests[::3]] == sizes
    assert len({Protocol.of(m) for m in manifests}) == 1
    assert draws == []
    seen = {}

    def runner(manifest):
        seen[manifest.run_id] = tuple(manifest.subset_rows), tuple(manifest.train_rows)
        return SimulatedRunner(truth=TRUTH)(manifest)

    assert len(run_protocol(manifests, runner, jobs=jobs).ok_entries) == 30
    assert draws == [1000] * 3  # one order per seed, cut at the largest size
    for m in manifests:
        assert seen[m.run_id] == (sample(weather_table, m.subset).row_ids,
                                  source_train + sample(weather_table, m.subset).row_ids)


def test_threads_that_first_read_one_seed_together_draw_it_once(weather_table, draws):
    manifests = list(build_manifests(weather_table, "weather", make_schedule(10), seeds=(0,)))
    readers = manifests[1:9]  # 8 threads, more than cores, each reading another size first
    together = threading.Barrier(len(readers))
    read = {}

    def first_read(manifest):
        together.wait(timeout=10)
        read[manifest.run_id] = manifest.train_rows[:]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_read, args=(m,)) for m in readers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert draws == [1000]
    source_train = weather_table.row_ids("alarm", "train")
    for m in readers:
        assert read[m.run_id] == source_train + sample(weather_table, m.subset).row_ids


def test_a_simulated_uniform_protocol_draws_nothing(weather_table, draws):
    for table in (None, weather_table):  # with and without predictions
        manifests = build_manifests(weather_table, "weather", make_schedule(10), seeds=(0, 1))
        run_protocol(manifests, SimulatedRunner(truth=TRUTH, table=table), jobs=2)
    assert draws == []
    list(build_manifests(weather_table, "weather", make_schedule(10), "spis", seeds=(0, 1)))
    assert draws == [1000, 1000]  # spis sizes come from the draw, so it is made up front


@pytest.mark.parametrize("target, schedule, error, match", [
    ("nope", make_schedule(10), UnknownDomainError, "domain 'nope' not in corpus"),
    ("weather", Schedule(3, (0.0, 50.0, 150.0), (0, 50, 150)), SamplingError,
     "uniform percent must be in"),
])
def test_a_bad_protocol_raises_before_any_draw_or_run(weather_table, draws, target, schedule,
                                                      error, match):
    calls = []
    with pytest.raises(error, match=match):
        run_protocol(build_manifests(weather_table, target, schedule), calls.append)
    assert (draws, calls) == ([], [])


def test_simulated_run_canonical_point(manifests):
    result = SimulatedRunner(truth=TRUTH, noise_sigma=0.0)(manifests[1])  # k = 1
    assert result.exact_match == pytest.approx(70.53, abs=1e-12)
    assert result.wall_time == 0.0


def test_simulated_run_zero_subset_uses_floor(manifests):
    runner = SimulatedRunner(truth=TRUTH, noise_sigma=0.0, em_at_zero=10.0)
    assert runner(manifests[0]).exact_match == 10.0


def test_simulated_run_noise_within_five_sigma(manifests):
    # 10,000 independent draws at k=12; |EM - h(12)| <= 5 sigma in >= 99.9%.
    manifest = manifests[5]
    within = 0
    n = 10_000
    for i in range(n):
        em = SimulatedRunner(truth=TRUTH, noise_sigma=0.5, seed=i)(manifest).exact_match
        if abs(em - h(12)) <= 2.5:
            within += 1
    assert within / n >= 0.999


def test_simulated_run_config_validation():
    # nan < 0 and inf < 0 are false, so a sign check alone lets both through
    for sigma in (-1, float("nan"), float("inf")):
        with pytest.raises(ProtocolError, match="noise_sigma must be finite and >= 0"):
            SimulatedRunner(noise_sigma=sigma)
    with pytest.raises(ProtocolError):
        SimulatedRunner(em_at_zero=101)
    for truth in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, float("nan"), 3.0),
                  (1.0, 2.0, float("inf")), (1.0, "b", 3.0), (True, 0.35, 97.79)):
        with pytest.raises(ProtocolError, match="truth must be three finite numbers"):
            SimulatedRunner(truth=truth)


def test_run_protocol_completeness(weather_table, manifests):
    ledger = run_protocol(manifests, SimulatedRunner(truth=TRUTH))
    assert len(ledger.entries) == 10
    assert len(ledger.ok_entries) == 10


def test_run_protocol_isolates_failures(weather_table, manifests):
    inner = SimulatedRunner(truth=TRUTH)

    def flaky(manifest):
        if manifest.subset_percent == 12:
            raise RuntimeError("gpu fell over")
        return inner(manifest)

    ledger = run_protocol(manifests, flaky)
    assert len(ledger.ok_entries) == 9
    assert len(ledger.failed_entries) == 1
    assert "gpu fell over" in ledger.failed_entries[0].error
    assert len(ledger_to_curve(ledger)) == 9


def test_run_protocol_deterministic_and_order_independent(weather_table, manifests):
    runner = SimulatedRunner(truth=TRUTH, noise_sigma=0.5)
    sequential = run_protocol(manifests, runner, jobs=1)
    parallel = run_protocol(manifests, runner, jobs=4)
    again = run_protocol(manifests, runner, jobs=1)
    assert dumps(sequential) == dumps(parallel) == dumps(again)


def test_ledger_round_trip_bytes(weather_table, manifests):
    runner = SimulatedRunner(truth=TRUTH, noise_sigma=0.3)
    ledger = run_protocol(manifests, runner)
    text = dumps(ledger)
    assert dumps(Ledger.from_json(text, "ledger.json")) == text


def test_a_save_ledger_whose_rename_fails_keeps_the_old_ledger(manifests, tmp_path, monkeypatch):
    path = tmp_path / "ledger.json"
    path.write_bytes(b"old ledger")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="No space left"):
        save_ledger(run_protocol(manifests, SimulatedRunner(truth=TRUTH)), path)
    assert path.read_bytes() == b"old ledger"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sizes_that_agree_to_six_digits_get_distinct_run_ids(weather_table, tmp_path, jobs):
    schedule = Schedule(3, (0, 0, 0), (12.3456781, 12.3456789, 50))
    ledger = run_protocol(build_manifests(weather_table, "weather", schedule),
                          SimulatedRunner(truth=TRUTH), jobs=jobs)
    assert [e.run_id for e in ledger.entries] == [
        "parser.weather.uniform12.3456781.s0", "parser.weather.uniform12.3456789.s0",
        "parser.weather.uniform50.s0"]
    save_ledger(ledger, tmp_path / "ledger.json")
    assert load_ledger(tmp_path / "ledger.json") == ledger


def _entry(manifest, result=None, error=None):
    return LedgerEntry(manifest.run_id, manifest.subset.size_param, manifest.subset.seed,
                       manifest.subset_percent, len(manifest.subset_rows), result, error)


def test_ledger_rejects_duplicates_and_mismatches(manifests):
    protocol = Protocol.of(manifests[0])
    first, second = (_entry(m, RunResult(exact_match=50.0)) for m in manifests[:2])
    assert Ledger(2, protocol, (first, second)).entries == (first, second)
    with pytest.raises(ProtocolError, match=r"in entries\[0\] and entries\[2\]"):
        Ledger(2, protocol, (first, second, first))
    with pytest.raises(ProtocolError, match="^format 1: only format 2 is read$"):
        Ledger(1, protocol, (first, second))
    with pytest.raises(ProtocolError, match="^an entry has a result or an error, not both$"):
        _entry(manifests[1], first.result, "RuntimeError: boom")
    with pytest.raises(ProtocolError, match="needs an error message"):
        _entry(manifests[2])
    assert not _entry(manifests[2], error="boom").ok


def test_ledger_refuses_an_entry_its_header_does_not_name(manifests):
    protocol = Protocol.of(manifests[0])
    first, second = (_entry(m, RunResult(exact_match=50.0)) for m in manifests[:2])
    for stranger, want in (
            (replace(second, run_id="b.alarm.spis1.s0"), "parser.weather.uniform1.s0"),
            (replace(second, seed=5), "parser.weather.uniform1.s5"),
            (replace(second, size_param=2.0), "parser.weather.uniform2.s0")):
        assert protocol.run_id(stranger.size_param, stranger.seed) == want
        with pytest.raises(ProtocolError) as exc:
            Ledger(2, protocol, (first, stranger))
        assert str(exc.value) == (f"entries[1]: run_id {stranger.run_id!r} "
                                  f"is not the header's {want!r}")


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_protocol_refuses_a_manifest_its_protocol_does_not_name(manifests, jobs):
    calls = []

    def runner(manifest):
        calls.append(manifest.run_id)
        return SimulatedRunner(truth=TRUTH)(manifest)

    renamed = replace(manifests[3], run_id="parser.weather.uniform4.s9")
    with pytest.raises(ProtocolError, match=r"^manifest 'parser\.weather\.uniform4\.s9' is not "
                                            r"the protocol's 'parser\.weather\.uniform4\.s0'$"):
        run_protocol(manifests[:3] + [renamed] + manifests[4:], runner, jobs=jobs)
    assert sorted(calls) == sorted(m.run_id for m in manifests[:3])


def test_run_protocol_refuses_fewer_than_one_job(manifests):
    with pytest.raises(ProtocolError, match="^jobs must be >= 1, got 0$"):
        run_protocol(manifests, SimulatedRunner(truth=TRUTH), jobs=0)


def test_ledger_entry_requires_one_prediction_per_test_row(weather_table, manifests):
    runner = SimulatedRunner(truth=TRUTH, table=weather_table)
    result = runner(manifests[4])
    protocol = Protocol.of(manifests[4])
    n_test = protocol.n_test
    assert len(result.predictions) == n_test > 0
    short = RunResult(result.exact_match, predictions=result.predictions[:-1])
    message = rf"^entries\[1\]: {n_test - 1} predictions for {n_test} test rows$"
    with pytest.raises(ProtocolError, match=message):
        Ledger(2, protocol, (_entry(manifests[3], result), _entry(manifests[4], short)))

    def one_short(manifest):
        return short if manifest is manifests[4] else runner(manifest)

    ledger = run_protocol(manifests, one_short)  # the bad list fails its own run only
    assert [e.error for e in ledger.failed_entries] == [
        f"ProtocolError: {n_test - 1} predictions for {n_test} test rows"]
    assert len(ledger.ok_entries) == 9


def test_ledger_to_curve_requires_single_group(weather_table):
    # A ledger holds the runs of one protocol, so no curve mixes two: run_protocol
    # refuses a manifest of another protocol before its runner is called.
    schedule = make_schedule(4)
    for jobs, other in ((1, "weather"), (2, "weather"), (1, "alarm"), (2, "alarm")):
        calls = []

        def runner(manifest):
            calls.append(manifest.run_id)
            return SimulatedRunner(truth=TRUTH)(manifest)

        first = list(build_manifests(weather_table, "weather", schedule, model_id="m1"))
        mixed = first + list(build_manifests(weather_table, other, schedule, model_id="m2"))
        differ = "model_id" if other == "weather" else (
            "model_id, target_domain, n_source_train, n_test, test_digest")
        with pytest.raises(ProtocolError, match=rf"^manifest 'm2\.{other}\.uniform0\.s0' "
                                                rf"differs from the first in {differ}$"):
            run_protocol(mixed, runner, jobs=jobs)
        assert sorted(calls) == sorted(m.run_id for m in first)


def test_ledger_to_curve_rejects_empty_and_all_failed(manifests):
    protocol = Protocol.of(manifests[0])
    with pytest.raises(ProtocolError, match="empty ledger"):
        ledger_to_curve(Ledger(2, protocol, ()))
    ledger = Ledger(2, protocol, tuple(_entry(m, error="boom") for m in manifests))
    with pytest.raises(ProtocolError, match="all runs failed"):
        ledger_to_curve(ledger)
    with pytest.raises(ProtocolError, match="^no manifests to run$"):
        run_protocol([], SimulatedRunner(truth=TRUTH))


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_protocol_bad_return_fails_only_its_run(manifests, jobs):
    inner = SimulatedRunner(truth=TRUTH)

    def misbehaving(manifest):
        if manifest.subset_percent == 4:
            return None
        return inner(manifest)

    ledger = run_protocol(manifests, misbehaving, jobs=jobs)
    assert [e.run_id for e in ledger.entries] == [m.run_id for m in manifests]
    failed = {e.subset_percent: e.error for e in ledger.failed_entries}
    assert failed == {4: "ProtocolError: runner returned NoneType, not RunResult"}
    assert len(ledger.ok_entries) == 9
    assert dumps(ledger) == dumps(run_protocol(manifests, misbehaving, jobs=3 - jobs))


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_protocol_holds_only_the_manifests_in_flight(weather_table, jobs):
    inner = SimulatedRunner(truth=TRUTH)
    seen, alive = [], []
    lock = threading.Lock()

    def runner(manifest):
        with lock:
            seen.append(weakref.ref(manifest))
            alive.append(sum(ref() is not None for ref in seen))
        return inner(manifest)

    manifests = build_manifests(weather_table, "weather", make_schedule(10), seeds=(0, 1, 2))
    ledger = run_protocol(manifests, runner, jobs=jobs)
    assert len(ledger.ok_entries) == len(seen) == 30
    assert max(alive) <= 2 * jobs


def test_build_manifests_draws_every_subset_before_any_run():
    table = CorpusTable(make_rows("weather", 5, split="test") + make_rows("alarm", 50))
    calls = []

    def runner(manifest):
        calls.append(manifest.run_id)
        return SimulatedRunner(truth=TRUTH)(manifest)

    for algorithm in ("uniform", "spis"):
        with pytest.raises(SamplingError, match="domain 'weather' has no train rows to sample"):
            run_protocol(build_manifests(table, "weather", make_schedule(10), algorithm), runner)
    assert calls == []


def test_end_to_end_recovers_truth(weather_table, manifests):
    runner = SimulatedRunner(truth=TRUTH, noise_sigma=0.0, em_at_zero=5.0)
    ledger = run_protocol(manifests, runner)
    points = ledger_to_curve(ledger)
    assert len(points) == 10
    model = fit_curve(points)
    for got, want in zip((model.a, model.b, model.c), TRUTH):
        assert abs(got - want) / abs(want) < 1e-3


def test_predictions_mode_reports_realized_em():
    # Each test row has a frame of its own, so a prediction scored against
    # another row than its own would miss.
    rows = make_rows("weather", 100) + make_rows("alarm", 20, intent="IN:CREATE_ALARM")
    rows += [("weather", f"t {i}", f"[IN:GET_WEATHER w{i} ]", "test") for i in range(60)]
    table = CorpusTable(rows)
    *_, manifest = build_manifests(table, "weather", make_schedule(10))  # k = 100
    result = SimulatedRunner(truth=TRUTH, table=table)(manifest)
    assert len(result.predictions) == len(manifest.test_rows)
    # Item i predicts test row i; a corrupted frame still parses, to another frame.
    references = [table.parse[row_id] for row_id in manifest.test_rows]
    hits = sum(canonical_frame(predicted)[0] == reference
               for predicted, reference in zip(result.predictions, references))
    assert 0 < hits < len(references)
    assert result.exact_match == pytest.approx(100.0 * hits / len(result.predictions))


def test_a_miss_renames_the_root_label_of_every_generated_frame():
    # The 0% subset scores em_at_zero = 0, so every prediction is a miss.
    rng = random.Random(40)
    rows = make_rows("weather", 100) + make_rows("alarm", 20, intent="IN:CREATE_ALARM")
    rows += [("weather", f"t {i}", serialize_tree(random_frame(rng)), "test") for i in range(300)]
    table = CorpusTable(rows)
    manifest = next(iter(build_manifests(table, "weather", make_schedule(10))))
    assert manifest.subset_percent == 0
    result = SimulatedRunner(truth=TRUTH, table=table)(manifest)
    assert result.exact_match == 0.0 and len(result.predictions) == 300
    for row_id, miss in zip(manifest.test_rows, result.predictions):
        parse, root = table.parse[row_id], table.labels[row_id][0]
        assert miss == f"[{root}_WRONG{parse[len(root) + 1:]}"
        assert exact_match([miss], [parse]) == 0.0


def test_predictions_mode_needs_table(weather_table, manifests):
    # Predictions are drawn exactly when the runner has the table to draw them from.
    bare = run_protocol(manifests, SimulatedRunner(truth=TRUTH))
    assert all(entry.result.predictions is None for entry in bare.entries)
    ledger = run_protocol(manifests, SimulatedRunner(truth=TRUTH, table=weather_table))
    assert all(len(entry.result.predictions) == ledger.protocol.n_test > 0
               for entry in ledger.entries)


def _write_runner(tmp_path, fail_at=None):
    code = f"""\
import json, sys
manifest = json.load(open(sys.argv[1]))
k = manifest["subset_percent"]
if {fail_at!r} is not None and k == {fail_at!r}:
    sys.stderr.write("synthetic failure\\n")
    sys.exit(2)
em = -27.26 / k**0.35 + 97.79 if k > 0 else 5.0
print(json.dumps({{
    "run_id": manifest["run_id"],
    "exact_match": em,
    "seed": manifest["subset"]["seed"],
    "wall_time": 0.0,
}}))
"""
    path = tmp_path / "runner.py"
    path.write_text(code, encoding="utf-8")
    return CommandRunner([sys.executable, str(path)])


def test_command_runner_round_trip(tmp_path, weather_table, manifests):
    runner = _write_runner(tmp_path)
    result = runner(manifests[1])  # it echoes the manifest's run_id and seed
    assert result.exact_match == pytest.approx(70.53, abs=1e-9)
    assert (result.wall_time, result.predictions) == (0.0, None)


def test_command_runner_failure_recorded(tmp_path, weather_table, manifests):
    runner = _write_runner(tmp_path, fail_at=12)
    ledger = run_protocol(manifests, runner)
    assert len(ledger.ok_entries) == 9
    assert len(ledger.failed_entries) == 1
    assert "synthetic failure" in ledger.failed_entries[0].error


def test_command_runner_failure_keeps_the_traceback_tail(tmp_path, manifests):
    path = tmp_path / "crash.py"
    path.write_text(
        "import sys\n"
        "for i in range(15):\n"
        "    print(f'log {i}', file=sys.stderr)\n"
        "def train():\n"
        "    raise ValueError('no GPU left')\n"
        "train()\n",
        encoding="utf-8",
    )
    ledger = run_protocol(manifests[:1], CommandRunner([sys.executable, str(path)]))
    error = ledger.failed_entries[0].error
    assert error.startswith("RunnerError: runner exited 1: log ")
    lines = error.removeprefix("RunnerError: runner exited 1: ").split("\n")
    assert len(lines) == 10
    assert lines[-1] == "ValueError: no GPU left"
    assert "Traceback (most recent call last):" in lines
    assert "log 14" in lines and "log 10" not in lines


def _printing_runner(tmp_path, body):
    path = tmp_path / "printer.py"
    path.write_text(f"print({body!r})\n", encoding="utf-8")
    return CommandRunner([sys.executable, str(path)])


def test_command_runner_defaults_from_manifest(tmp_path, manifests):
    result = _printing_runner(tmp_path, '{"exact_match": 50, "extra": "ignored"}')(manifests[3])
    assert result.exact_match == 50.0 and type(result.exact_match) is float
    assert result.wall_time > 0.0


@pytest.mark.parametrize("bad, detail", [
    (CommandRunner(["dataeff-no-such-command"]), "No such file or directory"),
    (CommandRunner([sys.executable, "-c", "import time; time.sleep(5)"], timeout=0.2),
     "timed out after 0.2 seconds"),
])
def test_command_runner_execute_failure_fails_only_its_run(tmp_path, manifests, bad, detail):
    good = _write_runner(tmp_path)

    def runner(manifest):
        return (bad if manifest.subset_percent == 12 else good)(manifest)

    ledger = run_protocol(manifests[3:7], runner)
    assert [e.ok for e in ledger.entries] == [True, True, False, True]
    error = ledger.entries[2].error
    assert error.startswith("RunnerError: runner command failed to execute: ")
    assert detail in error


def test_command_runner_bad_output_names_run_and_key(tmp_path, manifests):
    runner = _printing_runner(tmp_path, '{"exact_match": "50"}')
    ledger = run_protocol(manifests[:2], runner)
    assert len(ledger.failed_entries) == 2
    error = ledger.failed_entries[1].error
    assert error.startswith("InputError: ")
    assert f"{manifests[1].run_id} runner output: exact_match: expected float, got str" in error


@pytest.mark.parametrize("echo, detail", [
    ('"seed": 9', "seed 9 is not the manifest's 0"),
    ('"seed": true', "seed True is not the manifest's 0"),
    ('"seed": "0"', "seed '0' is not the manifest's 0"),
    ('"run_id": "parser.weather.uniform1.s0"',
     "run_id 'parser.weather.uniform1.s0' is not the manifest's 'parser.weather.uniform4.s0'"),
])
def test_command_runner_echo_of_another_run_fails_only_its_run(tmp_path, manifests, echo, detail):
    # The run with 4% of the data echoes what is not its manifest's; the others echo nothing.
    path = tmp_path / "echo.py"
    path.write_text(
        "import json, sys\n"
        "manifest = json.load(open(sys.argv[1]))\n"
        f"echo = '{{{echo}, ' if manifest['subset_percent'] == 4 else '{{'\n"
        "print(echo + '\"exact_match\": 50}')\n",
        encoding="utf-8",
    )
    ledger = run_protocol(manifests, CommandRunner([sys.executable, str(path)]))
    assert [e.error for e in ledger.failed_entries] == [
        f"RunnerError: parser.weather.uniform4.s0 runner output: {detail}"]
    assert [p.seed for p in ledger_to_curve(ledger)] == [0] * 9


@pytest.mark.parametrize("command", ["", []])
def test_command_runner_refuses_an_empty_command(command):
    with pytest.raises(RunnerError, match="^empty runner command$"):
        CommandRunner(command)


def test_command_runner_bad_wall_time_fails_only_its_run(tmp_path, manifests):
    path = tmp_path / "slow.py"
    path.write_text(
        "import json, sys\n"
        "manifest = json.load(open(sys.argv[1]))\n"
        "wall_time = '1e400' if manifest['subset_percent'] == 4 else '0.5'\n"
        "print('{\"exact_match\": 50, \"wall_time\": ' + wall_time + '}')\n",
        encoding="utf-8",
    )
    ledger = run_protocol(manifests, CommandRunner([sys.executable, str(path)]))
    assert [e.error for e in ledger.failed_entries] == [
        "InputError: parser.weather.uniform4.s0 runner output: "
        "wall_time must be finite and >= 0, got inf"]
    assert Ledger.from_json(dumps(ledger), "ledger.json") == ledger  # it can be saved
    with pytest.raises(ProtocolError, match="^wall_time must be finite and >= 0, got -1$"):
        RunResult(50.0, wall_time=-1)
