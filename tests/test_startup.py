"""Start-up cost guard: each command loads only its own modules.

Every command is one short process, so what the package imports is paid on
every call. `import dataeff` loads no submodule, no command imports numpy
(`fit` included: the solver is pure Python), only the commands that read a
corpus (`sample`, `run`, `complexity`) import hashlib, which loads OpenSSL for
the corpus cache's SHA-256 key, `query` does not load `csv`, and only runners
start processes. Each command runs in turn in one fresh interpreter, the
corpus readers last; after each, the child records which heavy modules and
which `dataeff` modules it has loaded so far. The package also declares and
imports nothing outside the public standard library.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import dataeff
from dataeff import cli
from dataeff.curve import CurveModel
from dataeff.jsonio import dumps

from conftest import simple_corpus_rows, write_tsv

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WATCHED = ("numpy", "hashlib", "subprocess", "concurrent.futures")

CHILD = """
import json, sys
bare = [m for m in {watched!r} if m in sys.modules]
def package():
    return sorted(m[len("dataeff."):] for m in sys.modules if m.startswith("dataeff."))
import dataeff
imported = package()
from dataeff import cli
loaded, modules, csv = [], [], []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded.append([argv[0], code, [m for m in {watched!r} if m in sys.modules]])
    modules.append([argv[0], package()])
    csv.append([argv[0], "csv" in sys.modules])
with open(sys.argv[2], "w") as handle:
    json.dump({{"bare": bare, "loaded": loaded, "imported": imported, "modules": modules,
               "csv": csv}}, handle)
"""


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """What a fresh interpreter loads, command by command; query, compare and report first,
    and the commands that read a corpus last."""
    tmp_path = tmp_path_factory.mktemp("startup")
    rows = simple_corpus_rows("weather", 200, 10, 20)
    rows += simple_corpus_rows("alarm", 50, 5, 5, intent="IN:CREATE_ALARM")
    corpus = str(write_tsv(tmp_path / "corpus.tsv", rows))
    model = tmp_path / "model.json"
    model.write_text(dumps(CurveModel(-27.26, 0.35, 97.79, 0.0, 0, True, (1.0, 100.0))) + "\n",
                     encoding="utf-8")
    annotations = tmp_path / "weather.csv"
    annotations.write_text("intent,class\nIN:GET_WEATHER,semi\n", encoding="utf-8")
    frames = tmp_path / "frames.txt"
    frames.write_text("[IN:GET_WEATHER x ]\n", encoding="utf-8")
    ledger, out = str(tmp_path / "ledger.json"), str(tmp_path / "out")
    run = ["run", "--corpus", corpus, "--target", "weather", "--runner", "simulate",
           "--jobs", "1", "--emit-predictions", "--out", ledger]
    assert cli.main(run) == 0  # report reads the ledger before the child's own run
    corpus_readers = [
        ["sample", "--corpus", corpus, "--domain", "weather", "--size", "12",
         "--out", out + ".subset.json"],
        run,
        ["complexity", "--ledger", ledger, "--corpus", corpus,
         "--annotations", str(annotations), "--out", out + ".complexity.csv"],
    ]
    commands = [
        ["query", "--model", str(model), "--em", "80", "98"],
        ["compare", "--curves", f"a={model}", f"b={model}", "--em", "80"],
        ["report", "--points", ledger, "--model", str(model), "--queries", "80",
         "--out", out],
        ["schedule"],
        ["em", "--system", str(frames), "--reference", str(frames)],
        ["fit", "--points", ledger, "--out", out + ".model.json"],
        *corpus_readers,
    ]
    result = tmp_path / "modules.json"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(watched=WATCHED), json.dumps(commands), str(result)],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text(encoding="utf-8")), proc.stderr


def test_no_command_loads_numpy_or_process_modules(child):
    report, stderr = child
    assert "numpy" not in report["bare"]
    added = {}  # command -> the watched modules loaded so far, past those loaded bare
    for command, code, loaded in report["loaded"]:
        assert code == 0, (command, stderr)
        added[command] = set(loaded) - set(report["bare"])
    # The corpus readers run last, because hashlib stays loaded after the first of them.
    corpus_readers = ["sample", "run", "complexity"]
    assert list(added)[-3:] == corpus_readers
    for command, modules in added.items():
        assert modules <= ({"hashlib"} if command in corpus_readers else set()), command
    assert "fit" in added


def test_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    for path in sorted((SRC / "dataeff").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "dataeff", (path.name, name)
                # public standard-library modules only: no name with a leading underscore
                assert not top.startswith("_") or top == "__future__", (path.name, name)
                # one JSON decoder: every module reads and writes JSON through jsonio
                assert top != "json" or path.name == "jsonio.py", (path.name, name)
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


def test_each_command_loads_only_its_own_modules(child):
    report, _ = child
    assert report["imported"] == []
    # the modules loaded so far, after each command in turn
    so_far = dict(report["modules"])
    assert so_far["query"] == ["cli", "curve", "errors", "jsonio"]
    # jsonio.csv_text imports csv when it is first called; query prints only aligned text.
    csv_so_far = dict(report["csv"])
    assert csv_so_far["query"] is False
    assert csv_so_far["report"] is True
    assert not {"corpus", "frames", "protocol"} & set(so_far["compare"])
    assert not {"corpus", "frames"} & set(so_far["report"])


def _help(capsys, command):
    """What `dataeff COMMAND --help` prints, with each run of whitespace one space."""
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_cli_copies_of_sampler_and_simulator_rules_match_their_sources(capsys):
    # cli may not import sampling or protocol at start-up, so it spells these out itself.
    from dataeff.protocol import SimulatedRunner
    from dataeff.sampling import ALGORITHMS

    for command in ("sample", "run"):
        choices = re.search(r" --algorithm \{([^}]*)\}", _help(capsys, command)).group(1)
        assert tuple(choices.split(",")) == ALGORITHMS, command
    text = _help(capsys, "run")
    runner = SimulatedRunner()
    for option, value in (("--truth", " ".join(f"{v:g}" for v in runner.truth)),
                          ("--noise", f"{runner.noise_sigma:g}"),
                          ("--em-at-zero", f"{runner.em_at_zero:g}"),
                          ("--sim-seed", f"{runner.seed}")):
        assert re.search(rf" {option} [^()]*\(default ([^)]*)\)", text).group(1) == value, option


def test_every_public_name_resolves_and_is_listed():
    listed = dir(dataeff)
    for name in dataeff.__all__:
        value = getattr(dataeff, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("dataeff."), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        dataeff.nope


def test_every_public_name_is_read_inside_the_package():
    # A public name earns its place with a reader in the package's own modules: a name
    # loaded, or an attribute taken, anywhere outside __init__.py.
    read = set()
    for path in sorted((SRC / "dataeff").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(dataeff.__all__) - read) == []


def test_cli_still_exposes_the_functions_the_benchmark_tracer_wraps():
    for name in ("load_corpus", "build_manifests", "run_protocol", "save_ledger",
                 "fit_curve", "invert"):
        assert getattr(cli, name) is getattr(dataeff, name), name
    # The tracer also wraps these where they are defined; a rename would
    # silently drop their spans from `bench/run.py --trace 1`.
    from dataeff import analysis, frames, protocol, report, sampling

    lookups = {
        frames: ("parse_frame", "serialize_frame", "ontology_labels"),
        sampling: ("uniform_sample", "spis_sample"),
        protocol.Ledger: ("from_json",),
        analysis: ("per_intent_points", "per_class_curves"),
        report: ("write_report",),
    }
    for owner, names in lookups.items():
        for name in names:
            assert callable(getattr(owner, name, None)), (owner, name)
    # The runner span replaces __call__ on each runner class itself.
    for runner in (protocol.SimulatedRunner, protocol.CommandRunner):
        assert "__call__" in vars(runner), runner
    # The seams are other names for the calls they stand for, kept only for the
    # benchmark, and stay out of the public names. serialize_frame and
    # ontology_labels transform a canonical pair, so they stay functions.
    assert frames.parse_frame is frames.canonical_frame
    for text in ("[IN:GET_WEATHER  what s [SL:LOCATION boston]]", "[IN:A [SL:B x ] [SL:B y ] ]"):
        canonical, labels = frames.canonical_frame(text)
        assert frames.serialize_frame(frames.parse_frame(text)) == canonical
        assert frames.ontology_labels(frames.parse_frame(text)) == Counter(labels)
    assert not {"parse_frame", "serialize_frame", "ontology_labels"} & set(dataeff.__all__)
    assert sampling.uniform_sample is sampling.spis_sample is sampling.sample
    assert not {"uniform_sample", "spis_sample"} & set(dataeff.__all__)
