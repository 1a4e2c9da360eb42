"""Toy-scale self-test of the benchmark harness.

Run with ``python3 -m pytest bench/test_bench.py -q`` from the repository root.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus_gen  # noqa: E402
import run  # noqa: E402
import stub_runner  # noqa: E402

TOY = 0.03
LABEL = re.compile(r"\[((?:IN|SL):[^\s\]]*)")


@pytest.fixture(scope="module")
def toy_rows():
    return list(corpus_gen.generate_rows(seed=5, scale=TOY))


def test_same_seed_writes_identical_bytes(tmp_path):
    first, again, other = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "c.tsv"
    corpus_gen.write_corpus(first, 5, TOY)
    corpus_gen.write_corpus(again, 5, TOY)
    corpus_gen.write_corpus(other, 6, TOY)
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_generator_does_not_import_the_program():
    code = ("import sys; sys.path.insert(0, 'bench'); import corpus_gen; "
            "corpus_gen.generate_rows(1, 0.001); print('dataeff' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_frames_parse_and_round_trip(toy_rows):
    from dataeff.frames import parse_frame, serialize_frame

    for _, utterance, text, _ in toy_rows:
        frame = parse_frame(text)
        assert serialize_frame(frame) == text
        tokens = [t for t in text.split() if not t.startswith("[") and t != "]"]
        assert " ".join(tokens) == utterance


def test_corpus_shape(toy_rows):
    labels = {label for _, _, text, _ in toy_rows for label in LABEL.findall(text)}
    assert all(re.fullmatch(r"(IN|SL):[A-Z_:]+", label) for label in labels)
    assert any(re.search(r"\[SL:\w+ \[IN:\w+ [^\]]*\[SL:", text) for _, _, text, _ in toy_rows)
    splits = collections.defaultdict(set)
    for domain, _, _, split in toy_rows:
        splits[domain].add(split)
    assert len(splits) == 8
    assert all(s == {"train", "eval", "test"} for s in splits.values())


def test_intent_frequencies_are_long_tailed():
    rows = corpus_gen.generate_rows(seed=5, scale=0.2)
    counts = collections.Counter(LABEL.match(text).group(1)
                                 for domain, _, text, _ in rows if domain == "music")
    ranked = counts.most_common()
    assert len(ranked) == len(corpus_gen.INTENTS["music"])
    assert ranked[0][1] > 10 * ranked[-1][1]


@pytest.mark.parametrize("domain", ["messaging", "music", "reminder", "timer", "weather"])
def test_annotated_domains_use_the_packaged_intents(domain):
    csv = ROOT / "src" / "dataeff" / "data" / "annotations" / f"{domain}.csv"
    packaged = {line.split(",")[0] for line in csv.read_text().split()[1:]}
    assert {"IN:" + i for i in corpus_gen.INTENTS[domain]} == packaged


def test_stub_runner_echoes_the_manifest(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"run_id": "parser.weather.uniform12.s2",
                                    "subset_percent": 12.0, "subset": {"seed": 2}}))
    proc = subprocess.run([sys.executable, str(BENCH / "stub_runner.py"), str(manifest)],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["run_id"] == "parser.weather.uniform12.s2" and result["seed"] == 2
    a, b, c = stub_runner.TRUTH
    assert abs(result["exact_match"] - (a / 12.0 ** b + c)) <= stub_runner.OFFSET


def _result(capsys, monkeypatch, argv):
    """Run the benchmark in-process on toy-scale corpora; returns (exit code, result)."""
    toy = {name: dataclasses.replace(w, scale=0.05) for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", toy)
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_chain_passes_its_checks(workload, capsys, monkeypatch):
    code, result = _result(capsys, monkeypatch, ["--workload", workload, "--seed", "3",
                                                 "--seconds", "1", "--trace", "0"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "pipeline_s", "run_s", "analyze_s",
                                      "query_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_reports_every_layer(capsys, monkeypatch):
    code, result = _result(capsys, monkeypatch, ["--workload", "desk-exec", "--seed", "3",
                                                 "--trace", "1"])
    assert code == 0 and result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["metrics"]["protocol.runner.calls"]["value"] == 30
    assert result["metrics"]["frames.parse_frame.calls"]["value"] > 0


def test_failed_check_is_counted(tmp_path):
    workload = run.WORKLOADS["desk-exec"]
    (tmp_path / "ledger.json").write_text(json.dumps({"entries": []}))
    tally = run.Tally()
    run.check_chain(workload, [run.Command("run", 3, 0.1, 1.0, "")], tmp_path, tally,
                    {"test_rows": 1})
    assert tally.attempted == 1 + workload.runs
    assert len(tally.problems) >= 1 + workload.runs


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-exec",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
