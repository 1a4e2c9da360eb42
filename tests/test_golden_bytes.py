"""Byte-for-byte guard on every file the CLI writes.

Each output of the workflow on a small fixed corpus is hashed and compared
with a digest recorded from the original hand-written serializers, so any
change to a JSON, CSV or SVG writer that alters one byte fails here.
"""

import hashlib
import json
import sys

from dataeff import cli

from conftest import simple_corpus_rows, write_tsv

# A stand-in fine-tuning command: it fails the 12% run, copies the 7%
# manifest to the path given as its first argument, and otherwise reports
# the canonical curve.
RUNNER = """\
import json, shutil, sys
copy_to, manifest_path = sys.argv[1], sys.argv[2]
manifest = json.load(open(manifest_path))
k = manifest["subset_percent"]
if k == 7:
    shutil.copyfile(manifest_path, copy_to)
if k == 12:
    sys.stderr.write("synthetic failure\\n")
    sys.exit(3)
em = -27.26 / k**0.35 + 97.79 if k > 0 else 5.0
print(json.dumps({"run_id": manifest["run_id"], "exact_match": em,
                  "seed": manifest["subset"]["seed"], "wall_time": 0.0}))
"""

# The subset files (uniform.json, spis.json and the copied manifest.json) were
# recorded again when the sampling stream stopped being keyed by the size, so
# that the subsets of one seed nest. sim.json was recorded again when a
# prediction became a frame text alone, in the manifest's test-row order.
# sim.json, exec.json and manifest.json were recorded again when a result
# stopped repeating its manifest's run_id and seed, and a manifest began to
# carry the digest of its test split. sim.json and exec.json were recorded
# again for ledger format 2, which names the protocol once in a header; the
# outputs read from them (model, plot, complexity) kept their bytes.
GOLDEN = {
    "schedule": "e69c567d7a39bc4853bc3f38a76c929fa9470117e8edb4786fc39c81eb602f7d",
    "uniform.json": "a2c5be18237dbf06a7945306983cafe9db0489e46a598b617ef9f64cebd4c657",
    "spis.json": "dc51784c8301463ccad1a9359e415cc8eaf7e37773d91e24da8a86a3a34cd611",
    "sim.json": "b43966ab1f024b5ef8a0d261173ad283cc01e58a19d3c975f9c142722fb7baac",
    "exec.json": "2ca351e5d1ca2b739c5f65cd61e91417c4cc671bb2a787e9274e1de50f5476a9",
    "model.json": "1939cd9ae9db890342448db61cebea587a5d6c23f3fb51295797b7f55e5a495e",
    "plot.svg": "83c402213d168ba5ff1532737de21a97e72664786e66f81c32cdce2b6057aa45",
    "plot.csv": "21b2513a4d39c8c2d2cac06682c7c08b62e52f3e935f03463a2fb3d43e6812c2",
    "complexity.csv": "5246df8ba7a8be71ccff52a8a61c15560ceed88c98bca889e8f66f9d98a87723",
    "manifest.json": "978aa2b5844071fac3d760a843b975aa9f5b1355ca3e1e9528b594fd4b67d32b",
}

# Recorded from the tree-building corpus loader, before rows kept only
# canonical text and labels; spis.json recorded again with the nesting subsets,
# and sim.json with the positional predictions, and again with results that
# hold only what the runner measured and manifests that carry test_digest,
# and again for ledger format 2.
NESTED_GOLDEN = {
    "spis.json": "f71e956f3e4eaa7065497329d3dc141bf1f63e6e04dfd6c68dab987bf1abdc96",
    "sim.json": "71815c69c7ab7ea79b43800dc677f1c3a15eb2c0a7ef48bf092b8d631062a6c7",
    "complexity.csv": "9214dc19a0fa044d9bcf9f6666670da44e06998dc73a19a94b44f942d748a197",
}


def _corpus(tmp_path):
    rows = simple_corpus_rows("weather", 1000, 20, 30)
    rows += simple_corpus_rows("alarm", 100, 10, 15, intent="IN:CREATE_ALARM")
    for intent, count in (("IN:PLAY_MUSIC", 12), ("IN:STOP_MUSIC", 10)):
        for i in range(30):
            rows.append(("music", f"{intent} train {i}",
                         f"[{intent} x{i} [SL:MUSIC_TYPE jazz ] ]", "train"))
        for i in range(count):
            rows.append(("music", f"{intent} test {i}", f"[{intent} y{i} ]", "test"))
    return write_tsv(tmp_path / "corpus.tsv", rows)


def _nested_corpus(tmp_path):
    """Music rows with intents inside slots, repeated slots, and tabs and
    double spaces inside ``semantic_parse``, written as JSONL."""
    frames = {
        "IN:PLAY_MUSIC": "[IN:PLAY_MUSIC  play [SL:MUSIC_TYPE\tjazz{i} ]  [SL:MUSIC_TYPE rock ] ]",
        "IN:ADD_TO_PLAYLIST_MUSIC": (
            "[IN:ADD_TO_PLAYLIST_MUSIC add\t[SL:MUSIC_PLAYLIST_TITLE [IN:GET_PLAYLIST_MUSIC"
            "  my  list{i} [SL:MUSIC_TYPE pop ] ] ]  [SL:MUSIC_PLAYLIST_TITLE x ] ]"),
        "IN:STOP_MUSIC": "  [IN:STOP_MUSIC stop{i}\t]\t",
    }
    rows = []
    for split, count in (("train", 40), ("eval", 3), ("test", 12)):
        for i in range(count):
            for j, (intent, template) in enumerate(frames.items()):
                if split == "test" and intent == "IN:STOP_MUSIC" and i >= 6:
                    continue
                rows.append({"domain": "music", "utterance": f"{intent} {split} {i}",
                             "semantic_parse": template.format(i=i % (5 + 3 * j)),
                             "split": split})
    for i in range(20):
        rows.append({"domain": "weather", "utterance": f"weather {i}",
                     "semantic_parse": "[IN:GET_WEATHER  [SL:LOCATION [IN:GET_LOCATION here ] ] ]"})
    path = tmp_path / "nested.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_recorded_digests(tmp_path, capsys):
    corpus = _corpus(tmp_path)
    out = {}

    def main(*args):
        return cli.main([str(a) for a in args])

    assert main("schedule") == 0
    out["schedule"] = capsys.readouterr().out.encode("utf-8")

    assert main("sample", "--corpus", corpus, "--domain", "weather", "--size", 12,
                "--seed", 7, "--out", tmp_path / "uniform.json") == 0
    assert main("sample", "--corpus", corpus, "--domain", "music", "--algorithm", "spis",
                "--size", 3, "--seed", 1, "--out", tmp_path / "spis.json") == 0

    assert main("run", "--corpus", corpus, "--target", "music", "--seeds", 0, 1,
                "--noise", 0.5, "--emit-predictions", "--out", tmp_path / "sim.json") == 0

    runner = tmp_path / "runner.py"
    runner.write_text(RUNNER, encoding="utf-8")
    command = f"exec:{sys.executable} {runner} {tmp_path / 'manifest.json'}"
    assert main("run", "--corpus", corpus, "--target", "weather", "--runner", command,
                "--out", tmp_path / "exec.json") == 3

    assert main("fit", "--points", tmp_path / "exec.json", "--out", tmp_path / "model.json") == 0
    assert main("report", "--points", tmp_path / "exec.json", "--model", tmp_path / "model.json",
                "--queries", 80, 90, "--out", tmp_path / "plot") == 0
    assert main("complexity", "--ledger", tmp_path / "sim.json", "--corpus", corpus,
                "--domain", "music", "--out", tmp_path / "complexity.csv") == 0
    capsys.readouterr()

    for name in ("uniform.json", "spis.json", "sim.json", "exec.json", "model.json",
                 "plot.svg", "plot.csv", "complexity.csv", "manifest.json"):
        out[name] = (tmp_path / name).read_bytes()
    assert {name: _digest(data) for name, data in out.items()} == GOLDEN


def test_nested_corpus_outputs_match_recorded_digests(tmp_path, capsys):
    corpus = _nested_corpus(tmp_path)

    def main(*args):
        return cli.main([str(a) for a in args])

    assert main("sample", "--corpus", corpus, "--domain", "music", "--algorithm", "spis",
                "--size", 4, "--seed", 5, "--out", tmp_path / "spis.json") == 0
    assert main("run", "--corpus", corpus, "--target", "music", "--seeds", 0, 1,
                "--noise", 0.5, "--emit-predictions", "--out", tmp_path / "sim.json") == 0
    assert main("complexity", "--ledger", tmp_path / "sim.json", "--corpus", corpus,
                "--domain", "music", "--min-count", 6,
                "--out", tmp_path / "complexity.csv") == 0
    capsys.readouterr()

    names = ("spis.json", "sim.json", "complexity.csv")
    digests = {name: _digest((tmp_path / name).read_bytes()) for name in names}
    assert digests == NESTED_GOLDEN


# Recorded before `invert` returned the unreachable case as a value, except
# answers.svg and answers.csv, recorded when `report` began to tell a
# beyond-100% answer from one never reached. On the canonical curve the
# targets 80, 97 and 99 cover the three answers: reached, beyond 100% of the
# data, and never reached.
ANSWER_GOLDEN = {
    "query": "4e38380bcaefe43c28895b865f8e798625fa13c8276af1d03f013db34a3a838f",
    "compare.txt": "de2261f3481b9dd36b5ecff2006e93e1c6b3da5d698f3f9b11e44982b6aae8d9",
    "compare.csv": "51b5722c809e4b8fb7ba6549cc50501686d2af44fbf7410e5b3a2adf20046942",
    "reference.txt": "5d977cbf5712338a1c19d1ed1459598b4469f2b70d0abb4ff9a1b8cdc0108f15",
    "reference.csv": "eabeb86fd3a977887f60d83b30c9ba313604eb63761ad32d76c6ca32bfcdbf64",
    "answers.svg": "870fdad1c6739640bd6df3533cfb18a673a9d3e3d95af1a4c882018a49cc14c4",
    "answers.csv": "9045375971af705fdd1ecabfd966270bd06c8a625bf00da9f4a6c363ffdb63a4",
}


def test_answer_renderers_match_recorded_digests(tmp_path, capsys):
    def main(*args):
        return cli.main([str(a) for a in args])

    def stdout(*args):
        assert main(*args) == 0
        return capsys.readouterr().out.encode("utf-8")

    a, c = -27.26, 97.79
    for name, b in (("canonical", 0.35), ("steep", 0.5)):
        model = {"a": a, "b": b, "c": c, "sse": 0.0, "iterations": 0, "converged": True,
                 "fit_domain": [1.0, 100.0]}
        (tmp_path / f"{name}.json").write_text(json.dumps(model) + "\n", encoding="utf-8")
    points = tmp_path / "points.csv"
    points.write_text("subset_percent,exact_match\n" + "".join(
        f"{x},{a / x ** 0.35 + c:.6f}\n" for x in (1, 2, 4, 7, 12, 21, 36, 60, 100)),
        encoding="utf-8")
    model, targets = tmp_path / "canonical.json", (80, 97, 99)

    out = {"query": stdout("query", "--model", model, "--em", *targets)}
    curves = ("--curves", f"canonical={model}", f"steep={tmp_path / 'steep.json'}")
    for fmt, suffix in (("text", "txt"), ("csv", "csv")):
        out[f"compare.{suffix}"] = stdout("compare", *curves, "--em", *targets, "--fmt", fmt)
        out[f"reference.{suffix}"] = stdout("compare", "--reference", "reminder", "--fmt", fmt)
    assert main("report", "--points", points, "--model", model, "--queries", *targets,
                "--out", tmp_path / "answers") == 0
    capsys.readouterr()
    for name in ("answers.svg", "answers.csv"):
        out[name] = (tmp_path / name).read_bytes()
    assert {name: _digest(data) for name, data in out.items()} == ANSWER_GOLDEN
