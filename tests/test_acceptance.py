"""Acceptance suite: one test per release criterion, run with -v for a
one-line pass/fail report per criterion (add -s to see the printed notes)."""

import json
import math
import random
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from dataeff.analysis import packaged_annotations, per_class_curves, reference_comparison
from dataeff.corpus import CorpusTable
from dataeff.curve import CurveModel, EfficiencyPoint, evaluate, fit_curve, invert
from dataeff.frames import canonical_frame, exact_match
from dataeff.jsonio import dumps
from dataeff.rng import SplitMix64
from dataeff.sampling import SubsetSpec, make_schedule, sample

from conftest import random_frame, simple_corpus_rows, write_tsv
from reference_frames import serialize_tree, tree_labels
from test_analysis import PACKAGED

CANONICAL = (-27.26, 0.35, 97.79)
POSITIVE_SIZES = (1, 2, 4, 7, 12, 21, 36, 60, 100)


def h(x, theta=CANONICAL):
    a, b, c = theta
    return a / x**b + c


def note(message):
    print(f"[acceptance] {message}")


def test_criterion_01_schedule_reproduction():
    started = time.perf_counter()
    schedule = make_schedule(10)
    reference_raw = (0.00, 0.67, 1.79, 3.66, 6.78, 11.99, 20.69, 35.22, 59.48, 100.00)
    for got, want in zip(schedule.raw, reference_raw):
        assert abs(got - want) <= 0.005
    assert schedule.sizes == (0, 1, 2, 4, 7, 12, 21, 36, 60, 100)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    note(f"criterion 1 PASS: schedule raw/ceiled values reproduced in {elapsed*1e3:.2f} ms")


def test_criterion_02_canonical_curve_arithmetic():
    model = CurveModel(*CANONICAL, sse=0.0, iterations=0, converged=True,
                       fit_domain=(1.0, 100.0))
    assert evaluate(model, 1.0) == pytest.approx(70.53, abs=1e-9)

    # Closed-form oracle computed independently of the library:
    # x(y) = ((y - c) / a) ** (-1 / b).
    a, b, c = CANONICAL
    oracle_80 = math.pow((80.0 - c) / a, -1.0 / b)   # = 3.385097270466952
    oracle_90 = math.pow((90.0 - c) / a, -1.0 / b)   # = 35.83047402634006
    assert abs(invert(model, 80.0).percent - oracle_80) < 1e-3
    assert abs(invert(model, 90.0).percent - oracle_90) < 1e-2
    assert abs(invert(model, 90.0).percent - 35.83) < 1e-2
    note(
        "criterion 2 PASS: evaluate(1)=70.53, invert(80)="
        f"{invert(model, 80.0).percent:.6f}, invert(90)={invert(model, 90.0).percent:.6f} "
        "(closed-form oracle)"
    )


def test_criterion_03_fit_recovery_oracle():
    rng = np.random.default_rng(20240131)
    started = time.perf_counter()
    successes = 0
    for _ in range(50):
        a = float(rng.uniform(-40, -5))
        b = float(rng.uniform(0.1, 2.0))
        c = float(rng.uniform(60, 99))
        points = [EfficiencyPoint(x, h(x, (a, b, c))) for x in POSITIVE_SIZES]
        model = fit_curve(points)
        rel = max(
            abs(model.a - a) / abs(a), abs(model.b - b) / abs(b), abs(model.c - c) / abs(c)
        )
        successes += rel < 1e-3
    elapsed = time.perf_counter() - started
    assert successes >= 49
    assert elapsed < 10.0
    note(f"criterion 3 PASS: {successes}/50 truths recovered (<1e-3 rel) in {elapsed:.2f} s")


def test_criterion_04_noisy_fit_robustness():
    worst_devs = []
    for trial in range(20):
        stream = SplitMix64(9000 + trial)
        points = [
            EfficiencyPoint(x, min(max(h(x) + stream.gauss(0.5), 0.0), 100.0), seed=seed)
            for seed in range(3)
            for x in POSITIVE_SIZES
        ]
        model = fit_curve(points)
        worst_devs.append(
            max(abs(evaluate(model, float(k)) - h(float(k))) for k in range(1, 101))
        )
    median = sorted(worst_devs)[len(worst_devs) // 2]
    assert median <= 1.5
    note(f"criterion 4 PASS: median worst-case curve deviation {median:.3f} EM <= 1.5")


def test_criterion_05_spis_coverage():
    rng = random.Random(550)
    for corpus_id in range(100):
        frames = [random_frame(rng, max_depth=3, max_branch=3)
                  for _ in range(rng.randint(4, 30))]
        rows = [
            ("synth", f"u{i}", serialize_tree(frame), "train")
            for i, frame in enumerate(frames)
        ]
        table = CorpusTable(rows)
        totals = Counter()
        for frame in frames:
            totals.update(tree_labels(frame))
        for k in (1, 2, 5):
            subset = sample(table, SubsetSpec("synth", "spis", k, corpus_id))
            achieved = Counter(label for pos in subset.row_ids for label in table.labels[pos])
            for label, total in totals.items():
                assert achieved[label] >= min(k, total), (corpus_id, k, label)
    note("criterion 5 PASS: SPIS coverage >= min(k, total) on 100 corpora, k in {1,2,5}")


def test_criterion_06_uniform_sampler_contract(tmp_path):
    rows = simple_corpus_rows("weather", 997, 0, 0) + simple_corpus_rows(
        "alarm", 50, 0, 0, intent="IN:CREATE_ALARM"
    )
    table_path = write_tsv(tmp_path / "corpus.tsv", rows)
    from dataeff.corpus import load_corpus

    table = load_corpus(table_path)
    spec = SubsetSpec("weather", "uniform", 12, 99)
    subset = sample(table, spec)
    assert len(subset.row_ids) == math.ceil(0.12 * 997)
    assert len(set(subset.row_ids)) == len(subset.row_ids)
    assert dumps(sample(table, spec)) == dumps(subset)

    # Process-restart determinism: two fresh CLI invocations, identical bytes.
    args = [sys.executable, "-m", "dataeff", "sample", "--corpus", str(table_path),
            "--domain", "weather", "--size", "12", "--seed", "99"]
    first = subprocess.run(args + ["--out", str(tmp_path / "a.json")], capture_output=True)
    second = subprocess.run(args + ["--out", str(tmp_path / "b.json")], capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    note("criterion 6 PASS: ceil sizing, uniqueness, restart-stable subset bytes")


def test_criterion_07_frame_round_trip():
    rng = random.Random(20240707)
    for _ in range(1000):
        frame = random_frame(rng)
        text = serialize_tree(frame)
        assert canonical_frame(text) == (text, tuple(tree_labels(frame)))
    frames = [serialize_tree(random_frame(rng)) for _ in range(5)]
    assert exact_match(frames, frames) == 100.0
    a = [canonical_frame("[IN:GET_WEATHER ]")[0], canonical_frame("[IN:GET_SUNSET ]")[0]]
    b = [canonical_frame("[IN:GET_WEATHER ]")[0], canonical_frame("[IN:GET_SUNRISE ]")[0]]
    assert exact_match(a, b) == 50.0
    note("criterion 7 PASS: 1000-frame canonical round trip with labels, EM identities")


def test_criterion_08_end_to_end_protocol(tmp_path):
    rows = simple_corpus_rows("weather", 400, 10, 20) + simple_corpus_rows(
        "alarm", 80, 10, 10, intent="IN:CREATE_ALARM"
    )
    corpus = write_tsv(tmp_path / "corpus.tsv", rows)
    ledger = tmp_path / "ledger.json"
    model = tmp_path / "model.json"
    started = time.perf_counter()

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "dataeff", *map(str, args)], capture_output=True, text=True
        )

    run = cli("run", "--corpus", corpus, "--target", "weather", "--runner", "simulate",
              "--seeds", 0, "--n", 10, "--out", ledger)
    assert run.returncode == 0, run.stderr
    fit = cli("fit", "--points", ledger, "--out", model)
    assert fit.returncode == 0, fit.stderr
    query = cli("query", "--model", model, "--em", 80)
    assert query.returncode == 0, query.stderr
    elapsed = time.perf_counter() - started

    answer = float(query.stdout.splitlines()[1].split()[1])
    assert abs(answer - 3.383) <= 0.01
    assert elapsed < 5.0
    note(f"criterion 8 PASS: run->fit->query gives {answer:.3f} in {elapsed:.2f} s")


def test_criterion_09_complexity_aggregation():
    per_intent = {
        "IN:A": [EfficiencyPoint(1, 80.0), EfficiencyPoint(12, 90.0)],
        "IN:B": [EfficiencyPoint(1, 90.0)],
        "IN:C": [EfficiencyPoint(1, 70.0), EfficiencyPoint(12, 85.0)],
        "IN:D": [EfficiencyPoint(1, 50.0)],
    }
    classes = {"IN:A": "closed", "IN:B": "closed", "IN:C": "semi", "IN:D": "open"}
    curves = {cls: [(p.subset_percent, p.exact_match) for p in points]
              for cls, points in per_class_curves(per_intent, classes).items()}
    assert curves == {"none": [], "closed": [(1.0, 85.0), (12.0, 90.0)],
                      "semi": [(1.0, 70.0), (12.0, 85.0)], "open": [(1.0, 50.0)]}
    assert list(curves) == ["none", "closed", "semi", "open"]

    for domain, expected in PACKAGED.items():
        assert packaged_annotations(domain) == expected
    note("criterion 9 PASS: hand-computed class means exact; packaged annotations match")


def test_criterion_10_reference_results_declared():
    # Full-scale fine-tuning numbers ship as data and feed table formatting only.
    from importlib import resources

    payload = json.loads(
        resources.files("dataeff")
        .joinpath("data/reference/model_generalizability.json")
        .read_text(encoding="utf-8")
    )
    assert "not reproducible" in payload["note"]

    weather = reference_comparison("weather")
    weather_cells = {model: cells[0].percent for model, cells in weather.rows}
    assert weather_cells == {
        "BART AR": 32.85, "RoBERTa NAR": 36.90, "RoBERTa Span Pointer": 30.67,
    }
    reminder = reference_comparison("reminder")
    reminder_rows = dict(reminder.rows)
    assert reminder_rows["BART AR"][0].percent == 8.46
    assert reminder_rows["RoBERTa NAR"][0].percent == 13.24
    assert reminder_rows["RoBERTa Span Pointer"][1].percent == 33.47
    assert "30.67" in weather.to_text() and "33.47" in reminder.to_csv()
    note("criterion 10 PASS: reference numbers declared as packaged data, format-only")
