import ast
import csv
import io
import json
import os
import pathlib
import re
import stat

import pytest

from dataeff.curve import CurveModel, EfficiencyPoint
from dataeff.errors import DataEffError, InputError
from dataeff.jsonio import csv_text, dumps, from_dict, loads, replace_file, text_table
from dataeff.protocol import (
    Ledger,
    RunResult,
    SimulatedRunner,
    build_manifests,
    run_protocol,
)
from dataeff.sampling import Schedule, make_schedule


def _ledger(weather_table):
    manifests = build_manifests(weather_table, "weather", make_schedule(4), seeds=(0, 1))
    inner = SimulatedRunner(noise_sigma=0.5, table=weather_table)

    def runner(manifest):
        if manifest.subset_percent == 4:
            raise RuntimeError("gpu fell over")
        return inner(manifest)

    return run_protocol(manifests, runner)


def _decode_error(tp, obj, source="f.json") -> str:
    with pytest.raises(InputError) as exc:
        from_dict(tp, obj, source)
    return str(exc.value)


def test_round_trip(weather_table):
    # Subsets, manifests and models have their own round-trip tests.
    values = [
        (Schedule, make_schedule(10)),
        (Ledger, _ledger(weather_table)),
        (list[EfficiencyPoint], [EfficiencyPoint(1.0, 70.5, 2)]),
    ]
    for tp, value in values:
        text = dumps(value)
        again = from_dict(tp, json.loads(text), "file.json")
        assert again == value
        assert dumps(again) == text


def test_dumps_field_order_and_none_defaults(weather_table):
    payload = json.loads(dumps(_ledger(weather_table)))
    assert list(payload) == ["format", "protocol", "entries"] and payload["format"] == 2
    entries = payload["entries"]
    failed = [e for e in entries if e["result"] is None]
    assert len(failed) == 2 and all(e["error"].startswith("RuntimeError") for e in failed)
    ok = next(e for e in entries if e["result"] is not None)
    assert list(ok) == ["run_id", "size_param", "seed", "subset_percent", "subset_size",
                        "result", "error"] and ok["error"] is None
    assert list(ok["result"]) == ["exact_match", "wall_time", "predictions"]
    assert dumps(RunResult(exact_match=50.0)) == '{"exact_match": 50.0, "wall_time": 0.0}'
    assert list(json.loads(dumps(make_schedule(3)))) == ["n", "raw", "sizes"]
    assert dumps({"rows": range(3)}) == dumps({"rows": (0, 1, 2)}) == '{"rows": [0, 1, 2]}'


def test_numbers_are_checked():
    point = from_dict(EfficiencyPoint, {"subset_percent": 12, "exact_match": 80}, "p.json")
    assert type(point.subset_percent) is float and point.subset_percent == 12.0
    assert "seed: expected int, got float" in _decode_error(
        EfficiencyPoint, {"subset_percent": 1, "exact_match": 2, "seed": 1.0})
    assert "exact_match: expected float, got bool" in _decode_error(
        EfficiencyPoint, {"subset_percent": 1, "exact_match": True})
    assert "seed: expected int, got bool" in _decode_error(
        EfficiencyPoint, {"subset_percent": 1, "exact_match": 2, "seed": False})
    assert "converged: expected bool, got int" in _decode_error(
        CurveModel, {"a": -1, "b": 1, "c": 90, "sse": 0, "iterations": 1, "converged": 1,
                     "fit_domain": [1, 100]})


def test_errors_name_source_and_key_path(weather_table):
    payload = json.loads(dumps(_ledger(weather_table)))
    payload["entries"][3]["seed"] = "1"
    message = _decode_error(Ledger, payload, "ledger.json")
    assert message == "ledger.json: entries[3].seed: expected int, got str"

    payload = json.loads(dumps(_ledger(weather_table)))
    payload["entries"][1]["result"]["predictions"][0] = 7
    assert "entries[1].result.predictions[0]: expected str, got int" in _decode_error(
        Ledger, payload)
    payload["entries"][1]["result"]["predictions"][0] = [1, "a"]
    assert "entries[1].result.predictions[0]: expected str, got array" in _decode_error(
        Ledger, payload)

    # The ledger's own checks name the entry, or both entries of a duplicate.
    payload = json.loads(dumps(_ledger(weather_table)))
    run_ids = [e["run_id"] for e in payload["entries"]]
    payload["entries"][4]["error"] = "RuntimeError: gpu fell over"
    assert _decode_error(Ledger, payload, "ledger.json") == (
        "ledger.json: entries[4]: an entry has a result or an error, not both")
    payload = json.loads(dumps(_ledger(weather_table)))
    n_test = payload["protocol"]["n_test"]
    payload["entries"][5]["result"]["predictions"].pop()
    assert _decode_error(Ledger, payload, "ledger.json") == (
        f"ledger.json: entries[5]: {n_test - 1} predictions for {n_test} test rows")
    payload = json.loads(dumps(_ledger(weather_table)))
    payload["entries"][6]["result"] = None
    assert _decode_error(Ledger, payload, "ledger.json") == (
        "ledger.json: entries[6]: a failed entry needs an error message")
    payload = json.loads(dumps(_ledger(weather_table)))
    payload["entries"][5] = payload["entries"][1]
    assert _decode_error(Ledger, payload, "ledger.json") == (
        f"ledger.json: duplicate run_id {run_ids[1]!r} in entries[1] and entries[5]")

    model = {"a": -1, "c": 90, "sse": 0, "iterations": 1, "converged": True,
             "fit_domain": [1, 100]}
    assert _decode_error(CurveModel, model, "model.json") == "model.json: b: missing"
    assert _decode_error(Ledger, [], "x") == "x: expected object, got array"
    assert _decode_error(Ledger, {"entries": []}, "x") == "x: format: missing"
    header = {"format": 2, "protocol": payload["protocol"]}
    assert _decode_error(Ledger, header | {"entrys": []}, "x") == "x: entries: missing"
    assert _decode_error(Ledger, header | {"format": 1, "entries": []}, "x") == (
        "x: format 1: only format 2 is read")
    assert "[1].exact_match: missing" in _decode_error(
        list[EfficiencyPoint], [{"subset_percent": 1, "exact_match": 2}, {"subset_percent": 3}])


def test_constructor_checks_report_their_location(weather_table):
    payload = json.loads(dumps(_ledger(weather_table)))
    payload["entries"][1]["result"]["exact_match"] = 150
    message = _decode_error(Ledger, payload, "ledger.json")
    assert message.startswith("ledger.json: entries[1].result: exact_match out of [0, 100]")
    payload["entries"][2] = payload["entries"][1] = payload["entries"][0]
    assert "duplicate run_id" in _decode_error(Ledger, payload, "ledger.json")
    empty = {"format": 2, "protocol": payload["protocol"], "entries": []}
    assert type(from_dict(Ledger, empty, "x").entries) is tuple


def test_unknown_keys_are_ignored():
    obj = {"run_id": "r", "exact_match": 1, "seed": 0, "gpu": "a100", "notes": [1, 2]}
    assert from_dict(RunResult, obj, "out") == RunResult(1.0)


def test_invalid_json_names_source():
    with pytest.raises(InputError) as exc:
        loads('{"a": ', "model.json")
    assert str(exc.value).startswith("model.json: invalid JSON")
    assert isinstance(exc.value, DataEffError) and isinstance(exc.value, ValueError)


def test_unsupported_values_are_program_errors():
    with pytest.raises(TypeError):
        dumps(object())
    with pytest.raises(TypeError):
        from_dict(dict, {}, "x")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_numbers_are_rejected(constant):
    with pytest.raises(InputError) as exc:
        loads(f'{{"a": [1, {constant}]}}', "model.json")
    assert str(exc.value) == f"model.json: invalid JSON: {constant} is not a JSON number"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_writes_no_non_json_number(value):
    with pytest.raises(ValueError):
        dumps({"wall_time": value})


def test_text_table_aligns_columns_and_strips_each_line():
    rows = [("em", "required_subset_%", "note"), ("80", "3.386", ""), ("99", "-", "unreachable")]
    assert text_table(rows) == (
        "em  required_subset_%  note\n"
        "80  3.386\n"
        "99  -                  unreachable\n"
    )
    assert text_table([("model", "em=80%"), ("a", "1.00")], rule=True) == (
        "model  em=80%\n"
        "-----  ------\n"
        "a      1.00\n"
    )


def test_csv_text_quotes_only_the_cells_that_need_it():
    rows = [("name", "x"), ("bart, large", "1"), ('x"y', "2"), ("two\nlines", "3"), ("", "4")]
    text = csv_text(rows)
    assert text == 'name,x\n"bart, large",1\n"x""y",2\n"two\nlines",3\n,4\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == [list(row) for row in rows]


def test_only_jsonio_lays_out_a_table():
    # Every table goes through text_table or csv_text, so that a new table adds rows,
    # not another copy of the column widths or the comma joins.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "dataeff"
    for path in sorted(src.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "ljust", (path.name, node.lineno)
                value = node.value
                comma_join = (node.attr == "join" and isinstance(value, ast.Constant)
                              and value.value == ",")
                assert not comma_join, (path.name, node.lineno)


def test_only_jsonio_replaces_a_file():
    # replace_file is the one temp-and-rename: a file written any other way could be
    # seen half written, or leave a temp file of its own behind.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "dataeff"
    for path in sorted(src.glob("*.py")):
        if path.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                renames = node.value.id == "os" and node.attr in ("replace", "rename")
                assert not renames, (path.name, node.lineno)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {"replace", "rename"} & {a.name for a in node.names}, path.name


def test_replace_file_writes_whole_or_not_at_all(tmp_path):
    path = tmp_path / "out.bin"
    replace_file(path, iter([b"first ", b"bytes"]), 0o600)
    assert path.read_bytes() == b"first bytes"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600

    def chunks():
        yield b"half"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        replace_file(path, chunks())
    assert path.read_bytes() == b"first bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_replace_file_refuses_what_is_not_a_regular_file(tmp_path):
    fifo, link = tmp_path / "fifo", tmp_path / "link"
    os.mkfifo(fifo)
    link.symlink_to(tmp_path / "real")
    for path in (fifo, link, tmp_path):
        with pytest.raises(OSError, match=re.escape(f"{path}: not a regular file")):
            replace_file(path, [b"x"])
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link"]
