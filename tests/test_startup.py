"""Start-up cost guard: only `fit` imports numpy, and only runners start processes.

Every command is one short process, so what the package imports is paid on
every call. Each command runs in turn in one fresh interpreter; after each,
the child records which of the heavy modules it has loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

from dataeff.curve import CurveModel
from dataeff.jsonio import dumps

from conftest import simple_corpus_rows, write_tsv

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WATCHED = ("numpy", "subprocess", "concurrent.futures")

CHILD = """
import json, sys
bare = [m for m in {watched!r} if m in sys.modules]
from dataeff import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded.append([argv[0], code, [m for m in {watched!r} if m in sys.modules]])
with open(sys.argv[2], "w") as handle:
    json.dump({{"bare": bare, "loaded": loaded}}, handle)
"""


def test_only_fit_imports_numpy_and_no_command_loads_process_modules(tmp_path):
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
    commands = [
        ["schedule"],
        ["sample", "--corpus", corpus, "--domain", "weather", "--size", "12",
         "--out", out + ".subset.json"],
        ["run", "--corpus", corpus, "--target", "weather", "--runner", "simulate",
         "--jobs", "1", "--emit-predictions", "--out", ledger],
        ["query", "--model", str(model), "--em", "80", "98"],
        ["report", "--points", ledger, "--model", str(model), "--queries", "80",
         "--out", out],
        ["compare", "--curves", f"a={model}", f"b={model}", "--em", "80"],
        ["complexity", "--ledger", ledger, "--corpus", corpus,
         "--annotations", str(annotations), "--out", out + ".complexity.csv"],
        ["em", "--system", str(frames), "--reference", str(frames)],
        ["fit", "--points", ledger, "--out", out + ".model.json"],
    ]
    result = tmp_path / "modules.json"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(watched=WATCHED), json.dumps(commands), str(result)],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text(encoding="utf-8"))
    assert "numpy" not in report["bare"]
    *before_fit, (_, fit_code, after_fit) = report["loaded"]
    for command, code, loaded in before_fit:
        assert code == 0, (command, proc.stderr)
        assert sorted(loaded) == sorted(report["bare"]), command
    assert fit_code == 0, proc.stderr
    assert "numpy" in after_fit
