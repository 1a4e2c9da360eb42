import json
import os
import pathlib
import stat
import subprocess
import sys
from collections import Counter

import pytest

from dataeff import cli, protocol
from dataeff.analysis import compare_models, load_annotations
from dataeff.corpus import load_corpus
from dataeff.curve import CurveModel, load_model, points_from_csv
from dataeff.errors import AnnotationError, InputError
from dataeff.jsonio import dumps
from dataeff.protocol import SimulatedRunner, build_manifests, ledger_to_curve, load_ledger
from dataeff.sampling import make_schedule

from conftest import columns, simple_corpus_rows, write_tsv

CANONICAL = (-27.26, 0.35, 97.79)
PROTOCOL = ('"protocol": {"model_id": "p", "target_domain": "w", "algorithm": "uniform", '
            '"n_source_train": 4, "n_eval": 2, "n_test": 2, "test_digest": "00"}')
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dataeff", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


def test_python_m_dataeff_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def module(*args):
        return subprocess.run([sys.executable, "-m", "dataeff", *args], capture_output=True,
                              text=True, cwd=tmp_path, env=env)

    schedule = module("schedule")
    assert schedule.returncode == 0, schedule.stderr
    assert json.loads(schedule.stdout)["sizes"] == [0, 1, 2, 4, 7, 12, 21, 36, 60, 100]
    missing = module("query", "--model", "missing.json", "--em", "80")
    assert missing.returncode == 1
    assert missing.stderr.startswith("error: ") and "missing.json" in missing.stderr


@pytest.fixture
def corpus(tmp_path):
    rows = simple_corpus_rows("weather", 1000, 20, 30)
    rows += simple_corpus_rows("alarm", 100, 10, 15, intent="IN:CREATE_ALARM")
    return write_tsv(tmp_path / "corpus.tsv", rows)


@pytest.fixture
def canonical_model_file(tmp_path):
    model = CurveModel(*CANONICAL, sse=0.0, iterations=0, converged=True, fit_domain=(1.0, 100.0))
    path = tmp_path / "model.json"
    path.write_text(dumps(model) + "\n", encoding="utf-8")
    return path


def points_csv(tmp_path, xs=(1, 2, 4, 7, 12, 21, 36, 60, 100), include_zero=False):
    a, b, c = CANONICAL
    lines = ["subset_percent,exact_match"]
    if include_zero:
        lines.append("0,5.0")
    lines += [f"{x},{format(a / x**b + c, '.17g')}" for x in xs]
    path = tmp_path / "points.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_schedule_default():
    proc = run_cli("schedule", "--n", 10)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sizes"] == [0, 1, 2, 4, 7, 12, 21, 36, 60, 100]


def test_schedule_n2():
    payload = json.loads(run_cli("schedule", "--n", 2).stdout)
    assert payload["sizes"] == [0, 100]


def test_schedule_usage_error():
    proc = run_cli("schedule", "--n", 1)
    assert proc.returncode == 2


def test_run_with_one_schedule_point_is_usage_error(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    proc = run_cli("run", "--corpus", corpus, "--target", "weather", "--n", 1, "--out", ledger)
    assert proc.returncode == 2
    assert "argument --n: not an integer >= 2: '1'" in proc.stderr
    assert not ledger.exists()


def test_sample_uniform_size(corpus, tmp_path):
    out = tmp_path / "subset.json"
    proc = run_cli(
        "sample", "--corpus", corpus, "--domain", "weather",
        "--algorithm", "uniform", "--size", 12, "--seed", 7, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert len(payload["row_ids"]) == 120
    assert "120 rows" in proc.stderr


def test_sample_deterministic_across_processes(corpus, tmp_path):
    args = ("sample", "--corpus", corpus, "--domain", "weather",
            "--size", 12, "--seed", 7)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_spis(tmp_path):
    rows = []
    for intent in ("IN:AAA", "IN:BBB", "IN:CCC", "IN:DDD"):
        rows.append(("toy", f"u {intent}", f"[{intent} x ]", "train"))
    corpus = write_tsv(tmp_path / "toy.tsv", rows)
    proc = run_cli(
        "sample", "--corpus", corpus, "--domain", "toy",
        "--algorithm", "spis", "--size", 1, "--out", tmp_path / "s.json",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "s.json").read_text())
    assert sorted(payload["row_ids"]) == [0, 1, 2, 3]


def test_sample_unknown_domain(corpus, tmp_path):
    proc = run_cli("sample", "--corpus", corpus, "--domain", "desert", "--size", 10)
    assert proc.returncode == 1
    assert "desert" in proc.stderr


def test_fit_recovers_canonical(tmp_path):
    points = points_csv(tmp_path)
    out = tmp_path / "model.json"
    proc = run_cli("fit", "--points", points, "--out", out)
    assert proc.returncode == 0, proc.stderr
    model = json.loads(out.read_text())
    for key, want in zip("abc", CANONICAL):
        assert abs(model[key] - want) / abs(want) < 1e-4


def test_fit_two_points_is_data_error(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("subset_percent,exact_match\n1,70\n100,95\n", encoding="utf-8")
    proc = run_cli("fit", "--points", path)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_fit_warns_on_zero_points(tmp_path):
    points = points_csv(tmp_path, include_zero=True)
    out = tmp_path / "model.json"
    proc = run_cli("fit", "--points", points, "--out", out)
    assert proc.returncode == 0
    assert "0%" in proc.stderr and "warning" in proc.stderr
    model = json.loads(out.read_text())
    assert abs(model["a"] - CANONICAL[0]) / abs(CANONICAL[0]) < 1e-4


def test_fit_warns_on_a_curve_that_is_not_saturating(tmp_path, capsys):
    points = tmp_path / "falling.csv"
    points.write_text("subset_percent,exact_match\n1,90\n10,60\n100,40\n", encoding="utf-8")
    assert cli.main(["fit", "--points", str(points), "--out", str(tmp_path / "m.json")]) == 0
    assert "warning: fit is not a well-formed saturating curve (a=" in capsys.readouterr().err


def test_fit_rejects_a_ledger_whose_entries_are_not_an_array(tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(f'{{"format": 2, {PROTOCOL}, "entries": {{}}}}\n', encoding="utf-8")
    assert cli.main(["fit", "--points", str(ledger)]) == 1
    assert capsys.readouterr().err == f"error: {ledger}: entries: expected array, got object\n"


def test_fit_average_seeds_warns_when_percents_differ_by_seed(corpus, tmp_path, capsys):
    # One train row in ten carries a slot, so the rows SPIS draws, and so its
    # realized percent, depend on the seed's order.
    rows = [("weather", f"u {i}", "[IN:GET_WEATHER x [SL:LOCATION y ] ]" if i % 10 == 0
             else "[IN:GET_WEATHER x ]", "train") for i in range(1000)]
    spis_corpus = write_tsv(tmp_path / "spis.tsv", rows + simple_corpus_rows("weather", 0, 5, 20)
                            + simple_corpus_rows("alarm", 100, 10, 15, intent="IN:CREATE_ALARM"))
    spis, uniform = tmp_path / "spis.json", tmp_path / "uniform.json"
    seeds = ["--seeds", "0", "1", "2"]
    assert cli.main(["run", "--corpus", str(spis_corpus), "--target", "weather",
                     "--algorithm", "spis", *seeds, "--out", str(spis)]) == 0
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather", *seeds,
                     "--out", str(uniform)]) == 0
    counts = Counter(p.subset_percent for p in ledger_to_curve(load_ledger(spis))).values()
    assert min(counts) < max(counts) == 3
    capsys.readouterr()
    assert cli.main(["fit", "--points", str(spis), "--average-seeds"]) == 0
    assert capsys.readouterr().err == (
        f"warning: --average-seeds pools {min(counts)} to 3 points per subset percent; "
        "percents that differ by seed, as SPIS percents do, are not averaged together\n")
    assert cli.main(["fit", "--points", str(uniform), "--average-seeds"]) == 0
    assert "--average-seeds" not in capsys.readouterr().err


def test_query_values(canonical_model_file):
    proc = run_cli("query", "--model", canonical_model_file, "--em", 80, 90)
    assert proc.returncode == 0
    assert "3.385" in proc.stdout
    assert "35.830" in proc.stdout


def test_query_unreachable(canonical_model_file):
    proc = run_cli("query", "--model", canonical_model_file, "--em", 98)
    assert proc.returncode == 0
    assert "unreachable (asymptote 97.79)" in proc.stdout


def test_query_exceeds_full_data(canonical_model_file):
    proc = run_cli("query", "--model", canonical_model_file, "--em", 97)
    assert proc.returncode == 0
    assert "exceeds_full_data" in proc.stdout


def test_query_and_compare_answer_past_the_float_range(tmp_path):
    model = CurveModel(-30.0, 0.01, 95.0, sse=0.0, iterations=0, converged=True,
                       fit_domain=(1.0, 100.0))
    path = tmp_path / "model.json"
    path.write_text(dumps(model) + "\n", encoding="utf-8")
    proc = run_cli("query", "--model", path, "--em", 94.98)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split() == ["94.98", "inf", "exceeds_full_data"]
    proc = run_cli("compare", "--curves", f"a={path}", f"b={path}", "--em", 94.98)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("inf (exceeds_full_data)") == 2


def test_run_simulate_deterministic(corpus, tmp_path):
    args = ("run", "--corpus", corpus, "--target", "weather",
            "--runner", "simulate", "--seeds", 0, "--noise", 0.5)
    out1, out2 = tmp_path / "l1.json", tmp_path / "l2.json"
    proc = run_cli(*args, "--out", out1)
    assert proc.returncode == 0, proc.stderr
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["entries"]) == 10


def test_run_fills_each_simulator_option_left_out_with_the_simulator_default(corpus, tmp_path):
    args = ["run", "--corpus", str(corpus), "--target", "weather", "--seeds", "0", "1"]
    plain, explicit = tmp_path / "plain.json", tmp_path / "explicit.json"
    assert cli.main(args + ["--out", str(plain)]) == 0
    defaults = SimulatedRunner()
    assert cli.main(args + ["--truth", *map(str, defaults.truth), "--noise", "0",
                            "--em-at-zero", "0", "--sim-seed", "0", "--out", str(explicit)]) == 0
    assert defaults.truth == CANONICAL
    assert plain.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("option", [["--emit-predictions"], ["--noise", "5"],
                                    ["--truth", "1", "2", "3"], ["--em-at-zero", "1"],
                                    ["--sim-seed", "1"]])
def test_run_refuses_a_simulator_option_with_an_exec_runner(corpus, tmp_path, capsys, option):
    ledger = tmp_path / "ledger.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--corpus", str(corpus), "--target", "weather", "--runner",
                  f"exec:{sys.executable} -c pass", *option, "--out", str(ledger)])
    assert exc.value.code == 2
    assert f"argument {option[0]}: simulator only, not exec:" in capsys.readouterr().err
    assert not ledger.exists()


@pytest.mark.parametrize("extra", [[], ["--emit-predictions"]])
def test_a_uniform_simulated_run_draws_no_subset(corpus, tmp_path, draws, extra):
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather", "--seeds", "0", "1",
                     "--jobs", "2", *extra, "--out", str(ledger)]) == 0
    assert draws == []
    assert len(load_ledger(ledger).ok_entries) == 20


def test_run_on_a_dense_schedule_runs_each_size_once(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    args = ("run", "--corpus", corpus, "--target", "weather", "--n", 20, "--out", ledger)
    proc = run_cli(*args, "--seeds", 0, 1)  # 20 sizes, 18 distinct
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(ledger.read_text())["entries"]) == 36
    proc = run_cli(*args, "--algorithm", "spis")
    assert proc.returncode == 0, proc.stderr


def test_run_on_a_missing_corpus_is_data_error(tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    assert cli.main(["run", "--corpus", str(missing), "--target", "weather",
                     "--out", str(tmp_path / "l.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read corpus {missing}: ")


def _logging_runner(tmp_path, watched):
    """An exec: runner that logs, at each call, the text of watched ('-' if absent)."""
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import os\n"
        f"watched, log = {str(watched)!r}, {str(tmp_path / 'calls.log')!r}\n"
        "text = open(watched).read() if os.path.exists(watched) else '-'\n"
        "open(log, 'a').write(text + '\\n')\n"
        "print('{\"exact_match\": 50}')\n",
        encoding="utf-8",
    )
    return f"exec:{sys.executable} {runner}"


def test_run_fails_before_any_run_when_out_cannot_be_written(corpus, tmp_path, capsys):
    out = tmp_path / "missing" / "ledger.json"
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--n", "3",
            "--runner", _logging_runner(tmp_path, out), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "calls.log").exists()


@pytest.mark.parametrize("algorithm", ["uniform", "spis"])
def test_run_refuses_a_target_without_train_rows_before_any_run(tmp_path, capsys, algorithm):
    rows = simple_corpus_rows("weather", 0, 5, 5)
    rows += simple_corpus_rows("alarm", 20, 5, 5, intent="IN:CREATE_ALARM")
    corpus, out = write_tsv(tmp_path / "corpus.tsv", rows), tmp_path / "ledger.json"
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--algorithm", algorithm,
            "--runner", _logging_runner(tmp_path, out), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: domain 'weather' has no train rows to sample from\n"
    assert not (tmp_path / "calls.log").exists()
    assert not out.exists()


def test_run_keeps_an_old_ledger_whole_until_the_new_one_is_written(corpus, tmp_path):
    out = tmp_path / "ledger.json"
    out.write_text("old ledger", encoding="utf-8")
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--n", "4",
            "--runner", _logging_runner(tmp_path, out), "--out", str(out)]
    assert cli.main(argv) == 0
    assert (tmp_path / "calls.log").read_text(encoding="utf-8") == "old ledger\n" * 4
    assert len(load_ledger(out).ok_entries) == 4
    assert list(tmp_path.glob("*.tmp")) == []


def test_run_leaves_a_file_named_like_a_temp_file_alone(corpus, tmp_path):
    out = tmp_path / "ledger.json"
    sibling = tmp_path / "ledger.json.tmp"
    sibling.write_bytes(b"not ours")
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--n", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sibling.read_bytes() == b"not ours"
    argv[2] = str(tmp_path / "missing.tsv")
    assert cli.main(argv) == 1
    assert sibling.read_bytes() == b"not ours"


def test_run_refuses_a_directory_out_before_any_run(corpus, tmp_path, capsys):
    out = tmp_path / "ledgers"
    out.mkdir()
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--n", "3",
            "--runner", _logging_runner(tmp_path, out), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
    assert not (tmp_path / "calls.log").exists()
    assert list(out.iterdir()) == []


def test_run_refuses_an_out_that_is_not_a_regular_file_before_any_run(corpus, tmp_path, capsys):
    out = tmp_path / "out.fifo"
    os.mkfifo(out)
    runner = _logging_runner(tmp_path, tmp_path / "unwatched")  # opening the FIFO would block
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--n", "3",
            "--runner", runner, "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: not a regular file\n"
    assert not (tmp_path / "calls.log").exists()
    assert stat.S_ISFIFO(os.lstat(out).st_mode)


def test_run_writes_through_a_symlinked_out(corpus, tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old ledger", encoding="utf-8")
    link.symlink_to(real)
    argv = ["run", "--corpus", str(corpus), "--target", "weather", "--n", "3", "--out", str(link)]
    assert cli.main(argv) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert len(load_ledger(real).entries) == 3
    assert list(tmp_path.glob("*.tmp")) == []


def test_run_warns_when_its_ledger_cannot_be_fitted(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    args = ("run", "--corpus", corpus, "--target", "weather", "--out", ledger)
    proc = run_cli(*args, "--n", 3)  # sizes 0, 10, 100: two of them positive
    assert proc.returncode == 0, proc.stderr
    reason = "need at least 3 distinct subset percents > 0 to fit, got 2"
    assert f"warning: fit cannot fit this ledger: {reason}" in proc.stderr
    fit = run_cli("fit", "--points", ledger)
    assert fit.returncode == 1
    assert reason in fit.stderr
    proc = run_cli(*args, "--n", 4)  # sizes 0, 4, 21, 100
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr
    assert run_cli("fit", "--points", ledger).returncode == 0
    proc = run_cli(*args, "--n", 4, "--runner", "exec:false")
    assert proc.returncode == 3, proc.stderr
    assert "warning: fit cannot fit this ledger: all runs failed; nothing to plot" in proc.stderr


def test_run_pipeline_fit_query(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    model = tmp_path / "model.json"
    assert run_cli(
        "run", "--corpus", corpus, "--target", "weather", "--runner", "simulate",
        "--seeds", 0, "--out", ledger,
    ).returncode == 0
    fit = run_cli("fit", "--points", ledger, "--out", model)
    assert fit.returncode == 0, fit.stderr
    proc = run_cli("query", "--model", model, "--em", 80)
    assert proc.returncode == 0
    value = float(proc.stdout.splitlines()[1].split()[1])
    assert abs(value - 3.383) <= 0.01


def test_run_exec_runner_partial_failure(corpus, tmp_path):
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import json, sys\n"
        "manifest = json.load(open(sys.argv[1]))\n"
        "k = manifest['subset_percent']\n"
        "if k == 12:\n"
        "    sys.exit(3)\n"
        "em = -27.26 / k**0.35 + 97.79 if k > 0 else 5.0\n"
        "print(json.dumps({'run_id': manifest['run_id'], 'exact_match': em,\n"
        "                  'seed': 0, 'wall_time': 0.0}))\n",
        encoding="utf-8",
    )
    ledger_path = tmp_path / "ledger.json"
    proc = run_cli(
        "run", "--corpus", corpus, "--target", "weather",
        "--runner", f"exec:{sys.executable} {runner}", "--out", ledger_path,
    )
    assert proc.returncode == 3
    payload = json.loads(ledger_path.read_text())
    failed = [e for e in payload["entries"] if e["result"] is None]
    assert len(failed) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("model_id", ["bart/large", "../x"])
def test_exec_runner_takes_any_model_id(corpus, tmp_path, jobs, model_id):
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import json, os, sys\n"
        "assert os.path.basename(sys.argv[1]) == 'manifest.json'\n"
        "k = json.load(open(sys.argv[1], encoding='utf-8'))['subset_percent']\n"
        "print(json.dumps({'exact_match': 50.0 + k / 4}))\n",
        encoding="utf-8",
    )
    temp = tmp_path / "temp"
    temp.mkdir()
    ledger = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dataeff", "run", "--corpus", str(corpus), "--target", "weather",
         "--n", "4", "--jobs", jobs, "--model-id", model_id,
         "--runner", f"exec:{sys.executable} {runner}", "--out", str(ledger)],
        capture_output=True, text=True, env={**os.environ, "TMPDIR": str(temp)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = load_ledger(ledger)
    assert loaded.protocol.model_id == model_id and len(loaded.entries) == 4
    assert all(e.error is None for e in loaded.entries)
    assert list(temp.iterdir()) == []  # each run's directory is gone, and nothing beside it


def test_report_command(corpus, tmp_path, canonical_model_file):
    points = points_csv(tmp_path)
    proc = run_cli(
        "report", "--points", points, "--model", canonical_model_file,
        "--queries", 80, 90, "--out", tmp_path / "plot",
    )
    assert proc.returncode == 0, proc.stderr
    svg = (tmp_path / "plot.svg").read_text(encoding="utf-8")
    assert svg.count('class="guide"') == 4
    assert (tmp_path / "plot.csv").exists()


@pytest.mark.parametrize("b, fit_domain", [(400.0, (1.0, 100.0)), (2000.0, (0.5, 100.0))])
def test_report_draws_a_curve_past_the_float_range(tmp_path, capsys, b, fit_domain):
    model = tmp_path / "model.json"
    model.write_text(dumps(CurveModel(-30.0, b, 95.0, sse=0.0, iterations=0, converged=True,
                                      fit_domain=fit_domain)) + "\n", encoding="utf-8")
    points = points_csv(tmp_path, xs=(0.5, 1, 50))
    assert cli.main(["report", "--points", str(points), "--model", str(model),
                     "--out", str(tmp_path / "plot")]) == 0
    curve = [float(line.split(",")[2]) for line in (tmp_path / "plot.csv").read_text().splitlines()
             if line.startswith("curve,")]
    assert len(curve) == 200 and all(0.0 <= y <= 100.0 for y in curve)


def test_report_out_prefix_keeps_its_dots(tmp_path, canonical_model_file, capsys):
    points = points_csv(tmp_path)
    for prefix in ("curve_v1.5", "seed0.5"):
        out = tmp_path / prefix
        assert cli.main(["report", "--points", str(points), "--model",
                         str(canonical_model_file), "--out", str(out)]) == 0
        assert f"wrote {out}.svg\nwrote {out}.csv\n" == capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curve_v1.5.csv", "curve_v1.5.svg", "model.json", "points.csv",
        "seed0.5.csv", "seed0.5.svg",
    ]


def test_report_empty_points_is_data_error(tmp_path, canonical_model_file):
    empty = tmp_path / "empty.csv"
    empty.write_text("subset_percent,exact_match\n", encoding="utf-8")
    proc = run_cli("report", "--points", empty, "--out", tmp_path / "plot")
    assert proc.returncode == 1


def _all_failed_ledger(corpus, tmp_path):
    ledger = tmp_path / "failed.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                     "--out", str(ledger)]) == 0
    payload = json.loads(ledger.read_text(encoding="utf-8"))
    for entry in payload["entries"]:
        entry["result"], entry["error"] = None, "RuntimeError: boom"
    ledger.write_text(json.dumps(payload), encoding="utf-8")
    return ledger


@pytest.mark.parametrize("command, source, message", [
    ("fit", "header.csv", "no points"),
    ("report", "header.csv", "no points"),
    ("fit", "ledger", "all runs failed; nothing to plot"),
])
def test_points_file_without_a_point_names_the_file(corpus, tmp_path, capsys, command, source,
                                                    message):
    if source == "ledger":
        path = _all_failed_ledger(corpus, tmp_path)
    else:
        path = tmp_path / source
        path.write_text("subset_percent,exact_match\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main([command, "--points", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not list(tmp_path.glob("out*"))


def test_points_come_from_a_ledger_or_a_csv_only(tmp_path):
    # A JSON array of points is neither: it is read as a CSV without the point columns.
    path = tmp_path / "points.json"
    path.write_text('[{"subset_percent": 1, "exact_match": 70}]', encoding="utf-8")
    proc = run_cli("fit", "--points", path)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: points CSV needs at least the columns ")
    # report always writes both PREFIX.svg and PREFIX.csv; it has no --fmt switch.
    proc = run_cli("report", "--points", path, "--out", tmp_path / "plot", "--fmt", "svg")
    assert proc.returncode == 2
    assert "unrecognized arguments: --fmt svg" in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["report", "--points", "missing.csv", "--model", "m.json", "--queries", "150",
      "--out", "plot"], "argument --queries: not a number in [0, 100]: '150'"),
    (["report", "--points", "missing.csv", "--queries", "80", "--out", "plot"],
     "argument --queries: needs --model"),
    (["compare", "--curves", "a=missing.json", "--em", "90"],
     "--curves comparison needs at least 2 models"),
])
def test_report_queries_and_a_single_curve_are_usage_errors(argv, message, capsys):
    # Each is refused before any file is read: the files named here do not exist.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_complexity_command(tmp_path):
    rows = simple_corpus_rows("alarm", 40, 4, 6, intent="IN:CREATE_ALARM")
    for intent, count in (("IN:PLAY_MUSIC", 12), ("IN:STOP_MUSIC", 10)):
        for i in range(30):
            rows.append(("music", f"{intent} train {i}", f"[{intent} x{i} ]", "train"))
        for i in range(count):
            rows.append(("music", f"{intent} test {i}", f"[{intent} y{i} ]", "test"))
    corpus = write_tsv(tmp_path / "music.tsv", rows)
    ledger = tmp_path / "ledger.json"
    assert run_cli(
        "run", "--corpus", corpus, "--target", "music", "--runner", "simulate",
        "--emit-predictions", "--out", ledger,
    ).returncode == 0
    proc = run_cli("complexity", "--ledger", ledger, "--corpus", corpus, "--domain", "music")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "class,subset_percent,mean_exact_match"
    assert any(line.startswith("semi,") for line in lines)  # IN:PLAY_MUSIC
    assert any(line.startswith("closed,") for line in lines)  # IN:STOP_MUSIC


def test_complexity_rejects_a_ledger_of_several_models(corpus, tmp_path, monkeypatch, capsys):
    # A ledger names one protocol, so complexity can never read the runs of two
    # models as one: run refuses a second model's manifest before running it.
    build = protocol.build_manifests

    def two_models(table, target, schedule, **kwargs):
        yield from build(table, target, schedule, **kwargs)
        yield from build(table, target, schedule, **kwargs | {"model_id": "b"})

    calls = []
    monkeypatch.setattr(protocol, "build_manifests", two_models)
    simulate = SimulatedRunner.__call__

    def counted(runner, manifest):
        calls.append(manifest.run_id)
        return simulate(runner, manifest)

    monkeypatch.setattr(SimulatedRunner, "__call__", counted)
    for jobs in ("1", "2"):
        ledger = tmp_path / f"jobs{jobs}.json"
        calls.clear()
        assert cli.main(["run", "--corpus", str(corpus), "--target", "weather", "--n", "4",
                         "--emit-predictions", "--jobs", jobs, "--out", str(ledger)]) == 1
        assert capsys.readouterr().err == ("error: manifest 'b.weather.uniform0.s0' differs "
                                           "from the first in model_id\n")
        assert sorted(calls) == sorted(f"parser.weather.uniform{k}.s0" for k in (0, 4, 21, 100))
        assert not ledger.exists()


@pytest.mark.parametrize("source, message", [
    ("failed", "all runs failed; nothing to plot"),
    ("plain", "run 'parser.weather.uniform0.s0' has no per-example predictions; "
              "re-run with a prediction-emitting runner"),
])
def test_complexity_names_the_ledger_it_refuses(corpus, tmp_path, capsys, source, message):
    if source == "failed":
        ledger = _all_failed_ledger(corpus, tmp_path)
    else:
        ledger = tmp_path / "plain.json"
        assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                         "--out", str(ledger)]) == 0
    capsys.readouterr()
    assert cli.main(["complexity", "--ledger", str(ledger), "--corpus", str(corpus),
                     "--domain", "weather", "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {ledger}: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_complexity_names_a_domain_that_is_not_the_ledgers(corpus, tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                     "--emit-predictions", "--out", str(ledger)]) == 0
    capsys.readouterr()
    assert cli.main(["complexity", "--ledger", str(ledger), "--corpus", str(corpus),
                     "--domain", "music", "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {ledger}: the ledger's runs are on domain 'weather', "
        "not on --domain 'music'\n")
    assert not (tmp_path / "out.csv").exists()


def test_complexity_names_a_corpus_whose_test_split_has_another_size(corpus, tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                     "--emit-predictions", "--out", str(ledger)]) == 0
    other = write_tsv(tmp_path / "other.tsv", simple_corpus_rows("weather", 1000, 20, 31)
                      + simple_corpus_rows("alarm", 100, 10, 15, intent="IN:CREATE_ALARM"))
    capsys.readouterr()
    assert cli.main(["complexity", "--ledger", str(ledger), "--corpus", str(other),
                     "--domain", "weather"]) == 1
    assert capsys.readouterr().err == (
        f"error: {ledger}: the ledger's runs were scored on another weather "
        "test split than this corpus's\n")


def _music_corpus(path, test_intents):
    rows = [("music", f"{intent} train {i}", f"[{intent} x{i} ]", "train")
            for intent in ("IN:PLAY_MUSIC", "IN:STOP_MUSIC") for i in range(30)]
    rows += [("music", f"{intent} test {i}", f"[{intent} ]", "test")
             for intent in test_intents for i in range(20)]
    return write_tsv(path, rows)


def test_complexity_refuses_a_corpus_whose_test_split_is_in_another_order(tmp_path, capsys):
    # Both corpora hold 20 PLAY and 20 STOP test rows, in opposite orders.
    corpus = _music_corpus(tmp_path / "music.tsv", ("IN:PLAY_MUSIC", "IN:STOP_MUSIC"))
    swapped = _music_corpus(tmp_path / "swapped.tsv", ("IN:STOP_MUSIC", "IN:PLAY_MUSIC"))
    ledger, out = tmp_path / "ledger.json", tmp_path / "out.csv"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "music", "--seeds", "0", "1",
                     "--emit-predictions", "--out", str(ledger)]) == 0
    argv = ["complexity", "--ledger", str(ledger), "--domain", "music", "--out", str(out)]
    assert cli.main(argv + ["--corpus", str(corpus)]) == 0
    assert out.read_text(encoding="utf-8").startswith("class,subset_percent,mean_exact_match\n")
    out.unlink()
    capsys.readouterr()
    assert cli.main(argv + ["--corpus", str(swapped)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ledger}: the ledger's runs were scored on another music "
        "test split than this corpus's\n")
    assert not out.exists()


FORMAT_1_LEDGER = (  # each entry repeated its manifest's summary; there was no header
    '{"entries": [{"manifest": {"run_id": "p.w.uniform1.s0", "model_id": "p", '
    '"target_domain": "w", "algorithm": "uniform", "size_param": 1.0, "seed": 0, '
    '"subset_percent": 1.0, "subset_size": 1, "n_train": 5, "n_eval": 2, "n_test": 2}, '
    '"result": {"exact_match": 70.0}, "error": null}]}\n')


@pytest.mark.parametrize("command", ["fit", "report", "complexity"])
def test_every_ledger_reader_refuses_format_1(corpus, tmp_path, command):
    old = tmp_path / "old.json"
    old.write_text(FORMAT_1_LEDGER, encoding="utf-8")
    argv = {
        "fit": ["fit", "--points", old],
        "report": ["report", "--points", old, "--out", tmp_path / "plot"],
        "complexity": ["complexity", "--ledger", old, "--corpus", corpus, "--domain", "weather"],
    }[command]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {old}: format: missing\n")
    assert not list(tmp_path.glob("plot*"))


def test_run_writes_the_protocol_once_and_each_run_lean(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather", "--seeds", "0", "1",
                     "--emit-predictions", "--out", str(ledger)]) == 0
    payload = json.loads(ledger.read_text(encoding="utf-8"))
    assert list(payload) == ["format", "protocol", "entries"] and payload["format"] == 2
    header = payload["protocol"]
    assert list(header) == ["model_id", "target_domain", "algorithm", "n_source_train",
                            "n_eval", "n_test", "test_digest"]
    table = load_corpus(corpus)
    assert header["n_test"] == len(table.row_ids("weather", "test"))
    assert header["test_digest"] == table.test_digest("weather")
    manifests = list(build_manifests(table, "weather", make_schedule(10), seeds=(0, 1)))
    assert [e["run_id"] for e in payload["entries"]] == [m.run_id for m in manifests]
    for entry, manifest in zip(payload["entries"], manifests):
        assert list(entry) == ["run_id", "size_param", "seed", "subset_percent", "subset_size",
                               "result", "error"]
        assert header["n_source_train"] + entry["subset_size"] == len(manifest.train_rows)


@pytest.mark.parametrize("domain, message", [
    # --domain is checked against the ledger before the corpus is read
    ("music", "the ledger's runs are on domain 'weather', not on --domain 'music'"),
    (None, "domain 'weather' not in corpus (have: music)"),
])
def test_complexity_names_the_ledger_in_its_domain_errors(corpus, tmp_path, capsys,
                                                           domain, message):
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                     "--emit-predictions", "--out", str(ledger)]) == 0
    music = _music_corpus(tmp_path / "music.tsv", ("IN:PLAY_MUSIC",))
    annotations = tmp_path / "weather.csv"
    annotations.write_text("intent,class\nIN:GET_WEATHER,semi\n", encoding="utf-8")
    chosen = ["--domain", domain] if domain else ["--annotations", str(annotations)]
    capsys.readouterr()
    assert cli.main(["complexity", "--ledger", str(ledger), "--corpus", str(music)]
                    + chosen) == 1
    assert capsys.readouterr().err == f"error: {ledger}: {message}\n"


def test_a_short_prediction_list_fails_only_its_run(corpus, tmp_path, capsys):
    # Every run prints one frame per test row, except the 7% run, which drops one.
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import json, sys\n"
        "manifest = json.load(open(sys.argv[1]))\n"
        "k = manifest['subset_percent']\n"
        "em = -27.26 / k**0.35 + 97.79 if k > 0 else 5.0\n"
        "frames = ['[IN:GET_WEATHER x ]'] * (len(manifest['test_rows']) - (k == 7))\n"
        "print(json.dumps({'exact_match': em, 'predictions': frames}))\n",
        encoding="utf-8",
    )
    ledger, model, out = tmp_path / "ledger.json", tmp_path / "model.json", tmp_path / "c.csv"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                     "--runner", f"exec:{sys.executable} {runner}", "--out", str(ledger)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"10 runs: 9 ok, 1 failed -> {ledger}\n")
    assert ("  failed parser.weather.uniform7.s0: "
            "ProtocolError: 29 predictions for 30 test rows\n") in err

    assert cli.main(["complexity", "--ledger", str(ledger), "--corpus", str(corpus),
                     "--domain", "weather", "--out", str(out)]) == 0
    percents = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
    assert percents == [0, 1, 2, 4, 12, 21, 36, 60, 100]  # every run but the 7% one
    assert cli.main(["fit", "--points", str(ledger), "--out", str(model)]) == 0
    fitted = load_model(model)
    assert (fitted.a, fitted.b, fitted.c) == pytest.approx(CANONICAL, rel=1e-6)


def test_complexity_command_with_annotation_file(tmp_path):
    rows = simple_corpus_rows("alarm", 40, 4, 6, intent="IN:CREATE_ALARM")
    for i in range(30):
        rows.append(("toy", f"train {i}", f"[IN:DO_THING x{i} ]", "train"))
    for i in range(15):
        rows.append(("toy", f"test {i}", f"[IN:DO_THING y{i} ]", "test"))
    corpus = write_tsv(tmp_path / "toy.tsv", rows)
    annotations = tmp_path / "toy_classes.csv"
    annotations.write_text("intent,class\nIN:DO_THING,open\n", encoding="utf-8")
    ledger = tmp_path / "ledger.json"
    assert run_cli(
        "run", "--corpus", corpus, "--target", "toy", "--runner", "simulate",
        "--emit-predictions", "--out", ledger,
    ).returncode == 0
    proc = run_cli(
        "complexity", "--ledger", ledger, "--corpus", corpus,
        "--annotations", annotations,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("open,") for line in proc.stdout.splitlines())


def test_fit_names_the_file_and_entry_of_a_subset_percent_out_of_range(corpus, tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(corpus), "--target", "weather",
                     "--out", str(ledger)]) == 0
    payload = json.loads(ledger.read_text())
    payload["entries"][3]["subset_percent"] = 150
    ledger.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["fit", "--points", str(ledger)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ledger}: entries[3]: subset_percent out of [0, 100]: 150.0\n")


def test_fit_rejects_corrupt_ledger(tmp_path):
    bad = tmp_path / "ledger.json"
    bad.write_text(f'{{"format": 2, {PROTOCOL}, "entries": [{{"nonsense": 1, "result": null, '
                   '"error": "x"}]}', encoding="utf-8")
    proc = run_cli("fit", "--points", bad)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {bad}: entries[0].run_id: missing\n"


def test_fit_refuses_entries_appended_from_another_protocols_ledger(tmp_path, capsys):
    # Entries copied from a ledger of another model, domain and algorithm do not load
    # under this ledger's header: each entry's run_id must be the header's name for it.
    rows = (simple_corpus_rows("weather", 200, 10, 20)
            + simple_corpus_rows("music", 200, 10, 20, intent="IN:PLAY_MUSIC"))
    path = write_tsv(tmp_path / "corpus.tsv", rows)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out, options in ((a, ["--model-id", "a", "--target", "music"]),
                         (b, ["--model-id", "b", "--target", "weather", "--algorithm", "spis"])):
        assert cli.main(["run", "--corpus", str(path), *options, "--out", str(out)]) == 0
    merged, appended = json.loads(a.read_text()), json.loads(b.read_text())["entries"]
    assert (len(merged["entries"]), len(appended)) == (10, 9)
    merged["entries"] += appended
    a.write_text(json.dumps(merged), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["fit", "--points", str(a)]) == 1
    assert capsys.readouterr() == ("", f"error: {a}: entries[10]: run_id 'b.weather.spis1.s0' "
                                       "is not the header's 'a.music.uniform1.s0'\n")


def test_compare_command_curves(tmp_path):
    fast = CurveModel(-27.26, 0.5, 97.79, 0.0, 0, True, (1.0, 100.0))
    slow = CurveModel(-27.26, 0.3, 97.79, 0.0, 0, True, (1.0, 100.0))
    fast_path, slow_path = tmp_path / "fast.json", tmp_path / "slow.json"
    fast_path.write_text(dumps(fast), encoding="utf-8")
    slow_path.write_text(dumps(slow), encoding="utf-8")
    proc = run_cli(
        "compare", "--curves", f"fast={fast_path}", f"slow={slow_path}", "--em", 90,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2].startswith("fast")  # less data required, listed first


def test_compare_csv_quotes_names_that_hold_a_comma_a_quote_or_a_line_break(tmp_path, capsys):
    import csv
    import io

    fast_model = CurveModel(-27.26, 0.5, 97.79, 0.0, 0, True, (1.0, 100.0))
    slow_model = CurveModel(*CANONICAL, 0.0, 0, True, (1.0, 100.0))
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    fast.write_text(dumps(fast_model), encoding="utf-8")
    slow.write_text(dumps(slow_model), encoding="utf-8")
    argv = ["compare", "--curves", f"bart, large={slow}", f'x"y={fast}', "--em", "80", "90",
            "--fmt"]
    assert cli.main(argv + ["csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows == [["model", "em_80", "em_90"], ['x"y', "2.35", "12.25"],
                    ["bart, large", "3.39", "35.83"]]
    # The aligned text quotes nothing: each name is printed as given.
    assert cli.main(argv + ["text"]) == 0
    assert capsys.readouterr().out == (
        "model        em=80%  em=90%\n"
        "-----------  ------  ------\n"
        'x"y          2.35    12.25\n'
        "bart, large  3.39    35.83\n"
    )
    # A name with a line break cannot reach the text table from the command line ...
    entry = f"two\nlines={slow}"
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--curves", entry, f"x={fast}", "--em", "80"])
    assert exc.value.code == 2
    assert (f"argument --curves: not NAME=FILE with a printable NAME: {entry!r}"
            in capsys.readouterr().err)
    # ... and the CSV still quotes one given in code.
    table = compare_models({"two\nlines": slow_model, "x": fast_model}, [80.0])
    assert list(csv.reader(io.StringIO(table.to_csv(), newline=""))) == [
        ["model", "em_80"], ["x", "2.35"], ["two\nlines", "3.39"]]


def test_compare_command_reference():
    proc = run_cli("compare", "--reference", "weather", "--fmt", "csv")
    assert proc.returncode == 0
    assert "RoBERTa Span Pointer,30.67" in proc.stdout


def test_compare_usage_errors():
    assert run_cli("compare").returncode == 2
    assert run_cli("compare", "--curves", "a=b.json").returncode == 2  # no --em


@pytest.mark.parametrize("argv, message", [
    (["--curves", "a=x.json", "b=y.json", "--em", "90", "--reference", "weather"],
     "argument --reference: not allowed with argument --curves"),
    (["--reference", "weather", "--curves", "a=x.json", "b=y.json", "--em", "90"],
     "argument --curves: not allowed with argument --reference"),
    (["--reference", "weather", "--em", "90"], "argument --em: not allowed with argument --reference"),
    (["--reference", "weather", "--em"], "argument --em: not allowed with argument --reference"),
])
def test_compare_takes_curves_or_reference_never_both(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["foo", "=b.json", "a="])
def test_compare_curves_entry_without_name_and_file_is_usage_error(entry):
    proc = run_cli("compare", "--curves", "a=b.json", entry, "--em", 90)
    assert proc.returncode == 2, proc.stderr
    assert f"argument --curves: not NAME=FILE: {entry!r}" in proc.stderr


@pytest.mark.parametrize("curves", [("a=m.json", "a=m.json", "b=m.json"),
                                    ("a=m.json", "a=m2.json")])
def test_compare_curves_repeated_name_is_usage_error(curves):
    proc = run_cli("compare", "--curves", *curves, "--em", 90)
    assert proc.returncode == 2, proc.stderr
    assert "--curves names must be unique; repeated: a" in proc.stderr


def test_complexity_negative_min_count_is_usage_error(tmp_path):
    out = tmp_path / "complexity.csv"
    proc = run_cli("complexity", "--ledger", tmp_path / "missing.json", "--corpus",
                   tmp_path / "missing.tsv", "--domain", "music", "--min-count", "-4",
                   "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert "argument --min-count: not an integer >= 0: '-4'" in proc.stderr
    assert not out.exists()


def test_em_command(tmp_path):
    system = tmp_path / "system.txt"
    reference = tmp_path / "reference.txt"
    system.write_text("[IN:GET_WEATHER x ]\n[IN:GET_SUNSET y ]\n", encoding="utf-8")
    reference.write_text("[IN:GET_WEATHER x ]\n[IN:GET_SUNRISE y ]\n", encoding="utf-8")
    proc = run_cli("em", "--system", system, "--reference", reference)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "50.0000"


@pytest.mark.parametrize("empty", ["system", "reference"])
@pytest.mark.parametrize("text", ["", "\n \t\n"], ids=["empty", "blank"])
def test_em_names_a_file_with_no_frames(tmp_path, capsys, empty, text):
    paths = {name: tmp_path / f"{name}.txt" for name in ("system", "reference")}
    for name, path in paths.items():
        path.write_text(text if name == empty else "[IN:GET_WEATHER x ]\n", encoding="utf-8")
    assert cli.main(["em", "--system", str(paths["system"]),
                     "--reference", str(paths["reference"])]) == 1
    assert capsys.readouterr().err == f"error: {paths[empty]}: no frames\n"


def test_em_names_both_files_when_their_lengths_differ(tmp_path, capsys):
    system = tmp_path / "system.txt"
    reference = tmp_path / "reference.txt"
    system.write_text("[IN:A x ]\n[IN:A y ]\n[IN:A z ]\n", encoding="utf-8")
    reference.write_text("[IN:A x ]\n\n[IN:A y ]\n", encoding="utf-8")
    assert cli.main(["em", "--system", str(system), "--reference", str(reference)]) == 1
    assert capsys.readouterr().err == f"error: {system}: 3 frames, {reference}: 2\n"


def test_em_refuses_blank_lines_at_different_line_numbers(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    reference = tmp_path / "ref.txt"
    system.write_text("[IN:A x ]\n\n[IN:C z ]\n", encoding="utf-8")
    reference.write_text("[IN:A x ]\n[IN:B y ]\n\n", encoding="utf-8")
    assert cli.main(["em", "--system", str(system), "--reference", str(reference)]) == 1
    assert capsys.readouterr().err == f"error: {reference}:2 holds a frame and {system}:2 is blank\n"
    reference.write_text("[IN:A x ]\n\n[IN:B y ]\n", encoding="utf-8")
    assert cli.main(["em", "--system", str(system), "--reference", str(reference)]) == 0
    assert capsys.readouterr().out == "50.0000\n"


def test_em_files_split_rows_at_newlines_only(tmp_path, capsys):
    system = tmp_path / "system.txt"
    reference = tmp_path / "reference.txt"
    breaks = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
    system.write_bytes(f"[IN:GET_WEATHER{breaks}x ]\r\n[IN:GET_SUNSET y{breaks}]\r\n"
                       .encode("utf-8"))
    reference.write_text("[IN:GET_WEATHER x ]\n[IN:GET_SUNSET y ]\n", encoding="utf-8")
    assert cli.main(["em", "--system", str(system), "--reference", str(reference)]) == 0
    assert capsys.readouterr().out.strip() == "100.0000"
    system.write_bytes(system.read_bytes() + b"[IN:GET_SUNSET\r\n")
    assert cli.main(["em", "--system", str(system), "--reference", str(reference)]) == 1
    assert f"{system}:3: unbalanced brackets" in capsys.readouterr().err
    system.write_bytes(system.read_bytes().replace(b"[IN:GET_SUNSET\r\n", b"[IN:\xff\r\n"))
    assert cli.main(["em", "--system", str(system), "--reference", str(reference)]) == 1
    assert capsys.readouterr().err == (f"error: {system}:3: not UTF-8: 'utf-8' codec can't "
                                       "decode byte 0xff in position 4: invalid start byte\n")


def test_path_line_errors_carry_their_line(tmp_path):
    annotations = tmp_path / "a.csv"
    annotations.write_text('intent,class\nIN:A,open\n"IN:B\nX",open\nIN:C,weird\n',
                           encoding="utf-8")
    with pytest.raises(AnnotationError) as exc:
        load_annotations(annotations)
    assert exc.value.line == 5
    assert str(exc.value) == (f"{annotations}:5: unknown complexity class 'weird' "
                              "(expected none, closed, semi, open)")
    assert isinstance(exc.value, InputError)

    with pytest.raises(InputError) as exc:
        points_from_csv("subset_percent,exact_match\n1,70\n101,88\n", "p.csv")
    assert exc.value.line == 3
    assert str(exc.value) == "p.csv:3: subset_percent out of [0, 100]: 101.0"

    frames = tmp_path / "frames.txt"
    frames.write_text("[IN:A x ]\n\n[IN:B [SL:C y ]\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        cli._read_frames(str(frames))
    assert exc.value.line == 3
    assert str(exc.value) == f"{frames}:3: unbalanced brackets: missing ']' (offset 0)"


def test_run_exec_runner_wrong_run_id_fails_one_run(corpus, tmp_path):
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import json, sys\n"
        "manifest = json.load(open(sys.argv[1]))\n"
        "k = manifest['subset_percent']\n"
        "run_id = 'other' if k == 12 else manifest['run_id']\n"
        "em = -27.26 / k**0.35 + 97.79 if k > 0 else 5.0\n"
        "print(json.dumps({'run_id': run_id, 'exact_match': em, 'seed': 0}))\n",
        encoding="utf-8",
    )
    ledger_path = tmp_path / "ledger.json"
    proc = run_cli(
        "run", "--corpus", corpus, "--target", "weather",
        "--runner", f"exec:{sys.executable} {runner}", "--out", ledger_path,
    )
    assert proc.returncode == 3, proc.stderr
    entries = json.loads(ledger_path.read_text())["entries"]
    failed = [e for e in entries if e["result"] is None]
    assert len(entries) == 10 and len(failed) == 1
    assert failed[0]["subset_percent"] == 12
    assert "'other'" in failed[0]["error"]


def test_model_missing_key_names_file_and_key(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"a": -27.26, "c": 97.79, "sse": 0.0, "iterations": 0, '
                    '"converged": true, "fit_domain": [1.0, 100.0]}\n', encoding="utf-8")
    proc = run_cli("query", "--model", path, "--em", 80)
    assert proc.returncode == 1
    assert f"{path}: b: missing" in proc.stderr


@pytest.mark.parametrize("key, value, message", [
    ("c", "1e400", "c must be finite, got inf"),
    ("a", "-1e400", "a must be finite, got -inf"),
    ("b", "0.0", "b must be > 0, got 0.0"),
    ("fit_domain", "[0, 100]", "fit_domain must be 0 < low <= high <= 100, got (0.0, 100.0)"),
    ("fit_domain", "[150, 200]",
     "fit_domain must be 0 < low <= high <= 100, got (150.0, 200.0)"),
    ("fit_domain", "[50, 10]", "fit_domain must be 0 < low <= high <= 100, got (50.0, 10.0)"),
    ("sse", "-1", "sse must be >= 0, got -1.0"),
    ("iterations", "-3", "iterations must be >= 0, got -3"),
    ("fit_domain", "[1, 50, 100]", "fit_domain: expected 2 items, got 3"),
])
def test_model_with_a_bad_field_names_file_and_field(tmp_path, capsys, key, value, message):
    payload = {"a": -27.26, "b": 0.35, "c": 97.79, "sse": 0.0, "iterations": 0,
               "converged": True, "fit_domain": [1.0, 100.0], key: "VALUE"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload).replace('"VALUE"', value), encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"
    points = points_csv(tmp_path)
    for argv in (["query", "--model", str(path), "--em", "90"],
                 ["report", "--points", str(points), "--model", str(path),
                  "--out", str(tmp_path / "plot")]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not list(tmp_path.glob("plot.*"))


def test_ledger_ill_typed_seed_names_file_and_key(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    assert run_cli("run", "--corpus", corpus, "--target", "weather", "--out", ledger).returncode == 0
    payload = json.loads(ledger.read_text())
    payload["entries"][2]["seed"] = "0"
    ledger.write_text(json.dumps(payload), encoding="utf-8")
    proc = run_cli("fit", "--points", ledger)
    assert proc.returncode == 1
    assert f"{ledger}: entries[2].seed: expected int, got str" in proc.stderr


@pytest.mark.parametrize("text, message", [
    ("subset_percent,exact_match\n1,70\n12,140\n", ":3: exact_match out of [0, 100]: 140.0"),
    ("subset_percent,exact_match\n1,70\ntwelve,88\n", ":3: could not convert string"),
    ("x,y\n1,70\n", ": points CSV needs at least the columns subset_percent,exact_match"),
])
def test_points_csv_errors_name_file_and_line(tmp_path, capsys, text, message):
    path = tmp_path / "points.csv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["fit", "--points", str(path)]) == 1
    assert f"error: {path}{message}" in capsys.readouterr().err


def test_points_csv_rows_end_at_a_newline_a_return_or_both(tmp_path):
    path = tmp_path / "points.csv"
    path.write_bytes(b"subset_percent,exact_match\r\n1,70\r2,80\n4,85\n")
    points = cli._load_points_file(str(path))
    assert [(p.subset_percent, p.exact_match) for p in points] == [(1, 70), (2, 80), (4, 85)]


def test_program_errors_propagate_out_of_main(monkeypatch):
    from dataeff import cli

    def broken(args):
        raise TypeError("a bug, not bad data")

    monkeypatch.setattr(cli, "cmd_schedule", broken)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["schedule"])


def test_run_unsplittable_runner_command_is_data_error(corpus, tmp_path):
    proc = run_cli("run", "--corpus", corpus, "--target", "weather",
                   "--runner", "exec:train 'unbalanced", "--out", tmp_path / "l.json")
    assert proc.returncode == 1
    assert "cannot split runner command" in proc.stderr


def test_run_on_a_malformed_corpus_names_file_and_line(corpus, tmp_path):
    good = corpus.read_bytes()
    for bad, message in ((b"weather\tx\t[SL:X y ]\ttrain\n", "3: bad frame: "),
                         (b"weather\t\xff\t[IN:X ]\ttrain\n", "3: not UTF-8: ")):
        lines = good.splitlines(keepends=True)
        corpus.write_bytes(b"".join(lines[:2] + [bad] + lines[2:]))
        proc = run_cli("run", "--corpus", corpus, "--target", "weather",
                       "--out", tmp_path / "l.json")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: {corpus}:{message}"), proc.stderr
        assert not (tmp_path / "l.json").exists()


def test_malformed_jsonl_rows_are_data_errors(tmp_path):
    path = tmp_path / "corpus.jsonl"
    for bad in ("5", '{"domain": "weather", "utterance": "x", "semantic_parse": 5}'):
        path.write_text(bad + "\n", encoding="utf-8")
        proc = run_cli("sample", "--corpus", path, "--domain", "weather", "--size", 10,
                       "--out", tmp_path / "s.json")
        assert proc.returncode == 1, proc.stderr
        assert f"{path}:1: JSONL row: " in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("query", "--model", "m.json", "--em", "80", "nan"),
    ("compare", "--curves", "a=m.json", "--em", "inf"),
    ("report", "--points", "p.csv", "--out", "plot", "--queries=-inf"),
    ("run", "--corpus", "c.tsv", "--target", "w", "--out", "l.json", "--noise", "nan"),
    ("run", "--corpus", "c.tsv", "--target", "w", "--out", "l.json",
     "--truth", "-27", "infinity", "97"),
    ("run", "--corpus", "c.tsv", "--target", "w", "--out", "l.json", "--em-at-zero", "NaN"),
    ("run", "--corpus", "c.tsv", "--target", "w", "--out", "l.json", "--noise", "abc"),
])
def test_float_options_reject_non_finite_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("query", "--model", "m.json", "--em", "80", "-5"),
    ("query", "--model", "m.json", "--em", "150"),
    ("compare", "--curves", "a=m.json", "b=n.json", "--em", "-5"),
    ("compare", "--curves", "a=m.json", "b=n.json", "--em", "80", "150"),
])
def test_em_targets_outside_percents_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "not a number in [0, 100]" in capsys.readouterr().err


def test_query_at_the_percent_bounds(canonical_model_file, capsys):
    assert cli.main(["query", "--model", str(canonical_model_file), "--em", "0", "100"]) == 0
    rows = [line.split(None, 2) for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["0", "0.026"], ["100", "-", "unreachable (asymptote 97.79)"]]


@pytest.mark.parametrize("key, constant", [("a", "NaN"), ("b", "Infinity"), ("c", "-Infinity")])
def test_model_with_non_json_number_is_data_error(canonical_model_file, key, constant):
    payload = json.loads(canonical_model_file.read_text())
    payload[key] = "CONSTANT"
    canonical_model_file.write_text(json.dumps(payload).replace('"CONSTANT"', constant))
    proc = run_cli("query", "--model", canonical_model_file, "--em", 90)
    assert proc.returncode == 1, proc.stdout
    assert f"{canonical_model_file}: invalid JSON: {constant} is not a JSON number" in proc.stderr


def test_ledger_with_non_json_number_is_data_error(corpus, tmp_path):
    ledger = tmp_path / "ledger.json"
    assert run_cli("run", "--corpus", corpus, "--target", "weather", "--out", ledger).returncode == 0
    text = ledger.read_text()
    ledger.write_text(text.replace('"wall_time": ', '"wall_time": NaN, "x": ', 1))
    for argv in (("fit", "--points", ledger),
                 ("report", "--points", ledger, "--out", tmp_path / "plot")):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert f"{ledger}: invalid JSON: NaN is not a JSON number" in proc.stderr


def _load_columns(path):
    return columns(load_corpus(path))


BOM_CASES = {  # file name: (text, reader)
    "corpus.tsv": ("domain\tutterance\tsemantic_parse\tsplit\n"
                   "weather\thi\t[IN:GET_WEATHER hi ]\ttest\n", _load_columns),
    "corpus.jsonl": ('{"domain": "weather", "utterance": "hi", '
                     '"semantic_parse": "[IN:GET_WEATHER hi ]"}\n', _load_columns),
    "music.csv": ("intent,class\nIN:PLAY_MUSIC,open\n", load_annotations),
    "points.csv": ("subset_percent,exact_match\n1,70\n12,88\n", cli._load_points_file),
    "frames.txt": ("[IN:GET_WEATHER hi ]\n[IN:STOP_MUSIC ]\n", cli._read_frames),
    "model.json": ('{"a": -27.26, "b": 0.35, "c": 97.79, "sse": 0.0, "iterations": 0, '
                   '"converged": true, "fit_domain": [1.0, 100.0]}\n', load_model),
    "ledger.json": (f'{{"format": 2, {PROTOCOL}, "entries": [{{"run_id": "p.w.uniform1.s0", '
                    '"size_param": 1.0, "seed": 0, "subset_percent": 1.0, "subset_size": 1, '
                    '"result": {"exact_match": 70.0}, "error": null}]}\n', load_ledger),
}


@pytest.mark.parametrize("name", BOM_CASES)
def test_text_files_accept_a_byte_order_mark(tmp_path, name):
    text, read = BOM_CASES[name]
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain, bom = tmp_path / "plain" / name, tmp_path / "bom" / name
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(str(bom)) == read(str(plain))


@pytest.mark.parametrize("name, data, line", [
    ("model.json", b'{"a": -27.26,\n"b": 0.35, "c": 97.79\xff}\n', 2),
    ("ledger.json", BOM_CASES["ledger.json"][0].encode().replace(b'"p"', b'"p\xff"'), 1),
    ("points.csv", b"subset_percent,exact_match\n1,70\n2,7\xff\n4,80\n", 3),
    ("music.csv", b"\xef\xbb\xbfintent,class\nIN:PLAY_MUSIC,open\nIN:STOP\xe9,closed\n", 3),
])
def test_a_bad_byte_in_any_input_names_file_and_line(corpus, tmp_path, capsys, name, data, line):
    path = tmp_path / name
    path.write_bytes(data)
    ledger = tmp_path / "good.json"
    ledger.write_text(BOM_CASES["ledger.json"][0], encoding="utf-8")
    argv = {
        "model.json": ["query", "--model", str(path), "--em", "80"],
        "ledger.json": ["fit", "--points", str(path)],
        "points.csv": ["report", "--points", str(path), "--out", str(tmp_path / "plot")],
        "music.csv": ["complexity", "--ledger", str(ledger), "--corpus", str(corpus),
                      "--annotations", str(path)],
    }[name]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: not UTF-8: 'utf-8' codec can't decode byte "), err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_exec_runner_bytes_fail_only_their_own_run(corpus, tmp_path, jobs):
    runner = tmp_path / "runner.py"
    runner.write_text(
        "import json, sys\n"
        "k = json.load(open(sys.argv[1], encoding='utf-8'))['subset_percent']\n"
        "sys.stderr.buffer.write(b'log \\xff\\n')\n"
        "if k == 7:\n"
        "    sys.exit(1)\n"
        "bad = b' \\xff' if k == 12 else b''\n"
        "sys.stdout.buffer.write(b'{\"exact_match\": 50.0}' + bad + b'\\n')\n",
        encoding="utf-8",
    )
    ledger = tmp_path / "ledger.json"
    proc = run_cli("run", "--corpus", corpus, "--target", "weather", "--jobs", jobs,
                   "--runner", f"exec:{sys.executable} {runner}", "--out", ledger)
    assert proc.returncode == 3, proc.stderr
    entries = json.loads(ledger.read_text(encoding="utf-8"))["entries"]
    errors = {e["subset_percent"]: e["error"] for e in entries if e["error"]}
    assert len(entries) == 10
    assert errors == {
        7.0: "RunnerError: runner exited 1: log \ufffd",
        12.0: "RunnerError: parser.weather.uniform12.s0 runner output is not UTF-8: 'utf-8' "
              "codec can't decode byte 0xff in position 22: invalid start byte",
    }


@pytest.mark.parametrize("option, value", [
    ("--runner", "foo"), ("--runner", "exec:"), ("--runner", "exec:  "),
    ("--jobs", "0"), ("--jobs", "-1"), ("--seeds", "-1"), ("--seeds", str(2 ** 64)),
    ("--sim-seed", "-1"), ("--sim-seed", str(2 ** 64)), ("--noise", "-1"),
    ("--em-at-zero", "150"), ("--em-at-zero", "-1"), ("--seeds", ("0", "0")),
])
def test_run_usage_errors_exit_before_reading_the_corpus(tmp_path, option, value):
    ledger = tmp_path / "ledger.json"
    values = value if isinstance(value, tuple) else (value,)
    proc = run_cli("run", "--corpus", tmp_path / "missing.tsv", "--target", "weather",
                   option, *values, "--out", ledger)
    assert proc.returncode == 2, proc.stderr
    assert f"argument {option}: " in proc.stderr
    assert not ledger.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_sample_seed_out_of_range_is_usage_error(tmp_path, seed):
    out = tmp_path / "subset.json"
    proc = run_cli("sample", "--corpus", tmp_path / "missing.tsv", "--domain", "weather",
                   "--size", 12, "--seed", seed, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert f"argument --seed: not an integer in [0, 2**64): {seed!r}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("algorithm, size, message", [
    ("uniform", "150", "uniform percent must be in [0, 100], got 150.0"),
    ("uniform", "-1", "uniform percent must be in [0, 100], got -1.0"),
    ("spis", "2.5", "spis parameter must be an integer >= 1, got 2.5"),
    ("spis", "0", "spis parameter must be an integer >= 1, got 0.0"),
])
def test_sample_size_out_of_range_is_usage_error(tmp_path, algorithm, size, message):
    # The corpus does not exist: the size is refused before any file is read.
    out = tmp_path / "subset.json"
    proc = run_cli("sample", "--corpus", tmp_path / "missing.tsv", "--domain", "weather",
                   "--algorithm", algorithm, "--size", size, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert f"argument --size: {message}" in proc.stderr
    assert not out.exists()


def test_sample_accepts_the_largest_seed(corpus, tmp_path):
    proc = run_cli("sample", "--corpus", corpus, "--domain", "weather", "--size", 12,
                   "--seed", 2 ** 64 - 1, "--out", tmp_path / "subset.json")
    assert proc.returncode == 0, proc.stderr
