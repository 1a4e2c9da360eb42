import hashlib
import json
import marshal
import os
import sys
import threading
import time
import tracemalloc
from hashlib import blake2b
from pathlib import Path
from types import SimpleNamespace

import pytest

from dataeff import cli, corpus
from dataeff.corpus import SPLITS, CorpusTable, load_corpus
from dataeff.errors import CorpusError, DataEffError, UnknownDomainError
from dataeff.protocol import SimulatedRunner, build_manifests
from dataeff.sampling import make_schedule

from conftest import columns, row_keys, write_tsv


def test_three_row_tsv(tmp_path):
    path = write_tsv(
        tmp_path / "mini.tsv",
        [
            ("weather", "forecast please", "[IN:GET_WEATHER forecast ]", "train"),
            ("weather", "sunset time", "[IN:GET_SUNSET when ]", "train"),
            ("alarm", "wake me", "[IN:CREATE_ALARM wake ]", "train"),
        ],
    )
    table = load_corpus(path)
    assert len(table) == 3
    assert sorted(table.domains()) == ["alarm", "weather"]
    assert table.row_ids("weather", "train") == (0, 1)
    assert table.row_ids("alarm", "train") == (2,)


def test_header_only_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("domain\tutterance\tsemantic_parse\n", encoding="utf-8")
    table = load_corpus(path)
    assert len(table) == 0
    assert table.domains() == ()


def test_bad_frame_reports_line(tmp_path):
    path = write_tsv(
        tmp_path / "bad.tsv",
        [
            ("weather", "ok", "[IN:GET_WEATHER x ]", "train"),
            ("weather", "broken", "[SL:X y ]", "train"),
        ],
    )
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 3


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("domain\ttext\tparse\nweather\thi\t[IN:X ]\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 1


def test_wrong_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "domain\tutterance\tsemantic_parse\nweather\tonly two fields\n", encoding="utf-8"
    )
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 2


def test_split_from_filename_suffix(tmp_path):
    path = write_tsv(
        tmp_path / "weather_test.tsv",
        [("weather", "hi", "[IN:GET_WEATHER hi ]")],
        with_split=False,
    )
    table = load_corpus(path)
    assert row_keys(table) == (("weather", "test"),)


def test_split_defaults_to_train(tmp_path):
    path = write_tsv(
        tmp_path / "corpus.tsv", [("weather", "hi", "[IN:GET_WEATHER hi ]")], with_split=False
    )
    assert row_keys(load_corpus(path)) == (("weather", "train"),)


def test_jsonl_load(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"domain": "weather", "utterance": "hi", "semantic_parse": "[IN:GET_WEATHER hi ]", "split": "eval"}\n'
        '{"domain": "alarm", "utterance": "yo", "semantic_parse": "[IN:CREATE_ALARM yo ]"}\n',
        encoding="utf-8",
    )
    table = load_corpus(path)
    assert row_keys(table) == (("weather", "eval"), ("alarm", "train"))


UNKNOWN_SPLIT = "unknown split 'dev' (expected one of ('train', 'eval', 'test'))"


def test_row_rejects_unknown_split():
    with pytest.raises(CorpusError) as exc:
        CorpusTable([("weather", "u", "[IN:GET_WEATHER u ]", "dev")])
    assert isinstance(exc.value, DataEffError)
    assert str(exc.value) == UNKNOWN_SPLIT


def test_unknown_split_names_line(tmp_path):
    tsv = write_tsv(tmp_path / "corpus.tsv", [
        ("weather", "hi", "[IN:GET_WEATHER hi ]", "train"),
        ("weather", "u", "[IN:GET_WEATHER u ]", "dev"),
    ])
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text(
        '{"domain": "weather", "utterance": "u", "semantic_parse": "[IN:GET_WEATHER u ]",'
        ' "split": "dev"}\n', encoding="utf-8")
    for path, line in ((tsv, 3), (jsonl, 1)):
        with pytest.raises(CorpusError) as exc:
            load_corpus(path)
        assert exc.value.line == line
        assert str(exc.value) == f"{path}:{line}: {UNKNOWN_SPLIT}"


def test_rows_share_one_object_per_domain_split_and_label(tmp_path):
    rows = []
    for i in range(30):
        domain, split = ("weather", "alarm")[i % 2], SPLITS[i % 3]
        rows.append((domain, f"u{i}", f"[IN:GET_{domain.upper()} x [SL:DATE_TIME y ] ]", split))
    table = load_corpus(write_tsv(tmp_path / "corpus.tsv", rows))
    # A row's domain and split live only in the index, so rows hold no copy of either.
    assert row_keys(table) == tuple((domain, split) for domain, _, _, split in rows)
    labels = [label for row_labels in table.labels for label in row_labels]
    assert len({id(label) for label in labels}) == len(set(labels))


def test_jsonl_missing_key(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"domain": "weather", "utterance": "hi"}\n', encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert "semantic_parse" in str(exc.value)


@pytest.mark.parametrize("bad, message", [
    ("5", "expected object, got int"),
    ("null", "expected object, got null"),
    ('{"domain": "weather", "utterance": "x", "semantic_parse": 5}',
     "semantic_parse: expected str, got int"),
    ('{"domain": "weather", "utterance": null, "semantic_parse": "[IN:A x ]"}',
     "utterance: expected str, got null"),
])
def test_jsonl_malformed_row_names_line_and_key(tmp_path, bad, message):
    path = tmp_path / "corpus.jsonl"
    good = '{"domain": "weather", "utterance": "hi", "semantic_parse": "[IN:GET_WEATHER hi ]"}'
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 2
    assert str(exc.value) == f"{path}:2: JSONL row: {message}"


def _save(table, utterances, path):
    """A loaded table back out as TSV: each row's domain, utterance, canonical frame, split."""
    return write_tsv(path, [(domain, utterance, parse, split) for (domain, split), utterance, parse
                            in zip(row_keys(table), utterances, table.parse, strict=True)])


def test_load_save_reload_fixpoint(tmp_path):
    rows = [("weather", "messy spacing", "[IN:GET_WEATHER   what  [SL:LOCATION boston ]  ]",
             "train"),
            ("alarm", "plain", "[IN:CREATE_ALARM now ]", "test")]
    utterances = [row[1] for row in rows]
    table = load_corpus(write_tsv(tmp_path / "corpus.tsv", rows))
    assert table.parse[0] == "[IN:GET_WEATHER what [SL:LOCATION boston ] ]"
    out1 = _save(table, utterances, tmp_path / "round1.tsv")
    out2 = _save(load_corpus(out1), utterances, tmp_path / "round2.tsv")
    assert out1.read_bytes() == out2.read_bytes()


def test_unicode_corpus_round_trip(tmp_path):
    rows = [("wéather", "prévisions à Zürich 東京",
             "[IN:GET_WEATHER prévisions [SL:LOCATION zürich_東京 ] ]", "train")]
    table = load_corpus(write_tsv(tmp_path / "uni.tsv", rows))
    assert columns(table) == ((("wéather", "train"),), (rows[0][2],),
                              (("IN:GET_WEATHER", "SL:LOCATION"),))
    out = _save(table, [rows[0][1]], tmp_path / "uni_out.tsv")
    assert columns(load_corpus(out)) == columns(table)


# Characters str.splitlines() treats as line ends; a corpus row ends only at
# "\n" (or "\r\n"), so these stay inside the row.
OTHER_LINE_BREAKS = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"


def test_tsv_row_keeps_other_line_breaks(tmp_path):
    utterance = f"rain{OTHER_LINE_BREAKS}today"
    rows = [
        ("weather", utterance, f"[IN:GET_WEATHER rain{OTHER_LINE_BREAKS}today ]", "train"),
        ("weather", "sun", "[IN:GET_WEATHER sun ]", "test"),
    ]
    table = load_corpus(write_tsv(tmp_path / "corpus.tsv", rows))
    assert len(table) == 2
    assert row_keys(table) == (("weather", "train"), ("weather", "test"))
    assert table.parse[0] == "[IN:GET_WEATHER rain today ]"
    path = write_tsv(tmp_path / "bad.tsv", rows + [("weather", "x", "[SL:X y ]", "train")])
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 4


def test_jsonl_row_keeps_other_line_breaks(tmp_path):
    utterance = f"play{OTHER_LINE_BREAKS}jazz"
    rows = [
        {"domain": "music", "utterance": utterance,
         "semantic_parse": f"[IN:PLAY_MUSIC{OTHER_LINE_BREAKS}jazz ]"},
        {"domain": "music", "utterance": "stop", "semantic_parse": "[IN:STOP_MUSIC ]"},
        {"domain": "music", "utterance": "bad", "semantic_parse": "[IN:STOP_MUSIC"},
    ]
    path = tmp_path / "corpus.jsonl"
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 3
    path.write_text(text.rsplit("{", 1)[0], encoding="utf-8")
    table = load_corpus(path)
    assert row_keys(table) == (("music", "train"), ("music", "train"))
    assert table.parse == ("[IN:PLAY_MUSIC jazz ]", "[IN:STOP_MUSIC ]")


def test_crlf_corpus_loads(tmp_path):
    tsv = tmp_path / "corpus.tsv"
    tsv.write_bytes(b"domain\tutterance\tsemantic_parse\tsplit\r\n"
                    b"weather\thi\t[IN:GET_WEATHER hi ]\ttest\r\n"
                    b"weather\tbad\t[IN:GET_WEATHER\ttrain\r\n")
    with pytest.raises(CorpusError) as exc:
        load_corpus(tsv)
    assert exc.value.line == 3
    tsv.write_bytes(tsv.read_bytes().rsplit(b"weather", 1)[0])
    table = load_corpus(tsv)
    assert columns(table)[:2] == ((("weather", "test"),), ("[IN:GET_WEATHER hi ]",))
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_bytes(b'{"domain": "weather", "utterance": "hi", '
                      b'"semantic_parse": "[IN:GET_WEATHER hi ]"}\r\n\r\n')
    assert load_corpus(jsonl).parse == ("[IN:GET_WEATHER hi ]",)


def test_bom_crlf_lone_cr_blank_lines_and_no_final_newline(tmp_path):
    path = tmp_path / "corpus.tsv"
    text = (b"\xef\xbb\xbfdomain\tutterance\tsemantic_parse\tsplit\r\n"
            b"weather\tri\rn\t[IN:GET_WEATHER ri\rn ]\ttest\r\n"
            b"\r\n"
            b"\n"
            b"alarm\twake\t[IN:CREATE_ALARM wake ]\ttrain")
    path.write_bytes(text)
    assert columns(load_corpus(path)) == (
        (("weather", "test"), ("alarm", "train")),
        ("[IN:GET_WEATHER ri n ]", "[IN:CREATE_ALARM wake ]"),
        (("IN:GET_WEATHER",), ("IN:CREATE_ALARM",)))
    path.write_bytes(text.replace(b"wake ]", b"wake"))
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert exc.value.line == 5
    assert str(exc.value).startswith(f"{path}:5: bad frame: ")


def test_rows_with_one_bracket_structure_share_labels(tmp_path):
    rows = [("weather", "a", "[IN:GET_WEATHER a [SL:LOCATION b ] ]", "train"),
            ("weather", "c", "[IN:GET_WEATHER [SL:LOCATION c d ] e ]", "test"),
            ("weather", "f", "[IN:GET_WEATHER [SL:DATE_TIME f ] ]", "train")]
    table = load_corpus(write_tsv(tmp_path / "corpus.tsv", rows))
    assert table.labels[0] is table.labels[1]
    assert table.labels[2] == ("IN:GET_WEATHER", "SL:DATE_TIME")


TSV_HEADER = "domain\tutterance\tsemantic_parse\tsplit\n"
GOOD_TSV_ROW = "weather\thi\t[IN:GET_WEATHER hi ]\ttrain\n"
GOOD_JSONL_ROW = '{"domain": "weather", "utterance": "hi", "semantic_parse": "[IN:GET_WEATHER hi ]"}\n'


@pytest.mark.parametrize("name, text, message", [
    ("none.tsv", "", "line 1: TSV corpus has no header row"),
    ("header.tsv", "domain\ttext\tparse\nweather\thi\t[IN:X ]\n",
     "line 1: TSV header must be ['domain', 'utterance', 'semantic_parse'] "
     "(optional trailing 'split'), got ['domain', 'text', 'parse']"),
    ("fields.tsv", TSV_HEADER + GOOD_TSV_ROW + "weather\tonly two\n",
     "line 3: expected 4 tab-separated fields, got 2"),
    ("domain.tsv", TSV_HEADER + GOOD_TSV_ROW + "\thi\t[IN:GET_WEATHER hi ]\ttrain\n",
     "line 3: empty domain"),
    ("domain.jsonl", GOOD_JSONL_ROW + GOOD_JSONL_ROW.replace('"weather"', '""'),
     "line 2: empty domain"),
    ("order.tsv", TSV_HEADER + "\tx\t[SL:X y ]\tdev\n", "line 2: empty domain"),
    ("split.tsv", TSV_HEADER + "weather\tx\t[SL:X y ]\tdev\n", f"line 2: {UNKNOWN_SPLIT}"),
    ("frame.tsv", TSV_HEADER + GOOD_TSV_ROW + "weather\tx\t[IN:A x [SL:B y ] ] z\ttrain\n",
     "line 3: bad frame: trailing garbage after frame: 'z' (offset 20)"),
    ("open.jsonl", GOOD_JSONL_ROW + '{"domain": "w", "utterance": "x", "semantic_parse": "[IN:A x"}\n',
     "line 2: bad frame: unbalanced brackets: missing ']' (offset 0)"),
    ("json.jsonl", GOOD_JSONL_ROW + "\n" + '{"domain": "weather",\n',
     "line 3: JSONL row: invalid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 22 (char 21)"),
    ("key.jsonl", '{"domain": "weather", "utterance": "hi"}\n',
     "line 1: JSONL row: semantic_parse: missing"),
    ("bytes.tsv", (TSV_HEADER + GOOD_TSV_ROW).encode() + b"weather\th\xffi\t[IN:X ]\ttrain\n",
     "line 3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    ("bytes.jsonl", b"\xef\xbb\xbf" + GOOD_JSONL_ROW.encode()[:-3] + b"\xe9\n",
     "line 1: not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 80: "
     "invalid continuation byte"),
])
def test_load_errors_keep_their_text(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    where, _, message = message.partition(": ")
    line = int(where.removeprefix("line "))
    assert str(exc.value) == f"{path}:{line}: {message}"
    assert exc.value.line == line


def test_load_fills_columns_without_building_rows(tmp_path):
    rows = [("weather", "a", "[IN:GET_WEATHER a  [SL:LOCATION b ] ]", "train"),
            ("alarm", "c", "[IN:CREATE_ALARM c ]", "test"),
            ("weather", "d", "[IN:GET_WEATHER [SL:LOCATION d ] e ]", "eval"),
            ("weather", "f", "[IN:GET_WEATHER [SL:DATE_TIME f ] ]", "train")]
    from_rows = CorpusTable(rows)
    table = load_corpus(write_tsv(tmp_path / "corpus.tsv", rows))
    assert row_keys(table) == (("weather", "train"), ("alarm", "test"), ("weather", "eval"),
                               ("weather", "train"))
    assert table.parse[0] == "[IN:GET_WEATHER a [SL:LOCATION b ] ]"
    assert table.labels[1] == ("IN:CREATE_ALARM",)
    for loaded in (table, from_rows):
        assert loaded.row_ids("weather", "train") == (0, 3)
        assert loaded.labels[0] is loaded.labels[2]
        assert loaded.labels[0] is not loaded.labels[3]
        for name in ("rows", "domain", "utterance", "split"):
            assert not hasattr(loaded, name), name
    assert columns(table) == columns(from_rows)


def test_table_of_rows_checks_rows_as_load_does(tmp_path):
    bad_rows = [("", "u", "[IN:GET_WEATHER u ]", "train"),
                ("weather", "u", "[IN:GET_WEATHER u ]", "dev"),
                ("weather", "x", "[IN:A x [SL:B y ] ] z", "train")]
    for row in bad_rows:
        with pytest.raises(CorpusError) as loaded:
            load_corpus(write_tsv(tmp_path / "corpus.tsv", [row]))
        with pytest.raises(CorpusError) as built:
            CorpusTable([row])
        assert built.value.line is None
        assert f"{tmp_path / 'corpus.tsv'}:2: {built.value}" == str(loaded.value)
    assert str(built.value) == "bad frame: trailing garbage after frame: 'z' (offset 20)"


def _topv2_like_rows(n):
    """n TOPv2-shaped (domain, utterance, parse, split) rows, about 170 bytes each as TSV."""
    rows = []
    for i in range(n):
        domain = ("weather", "alarm", "music", "reminder")[i % 4]
        city = f"city{i % 997}"
        rows.append((domain, f"what is the forecast for {city} tomorrow morning {i}",
                     f"[IN:GET_WEATHER what is the forecast for [SL:LOCATION {city} ] "
                     f"[SL:DATE_TIME tomorrow morning ] {i} ]", ("train", "eval", "test")[i % 3]))
    return rows


def test_load_holds_well_under_one_copy_of_the_file(tmp_path):
    rows = _topv2_like_rows(20_000)
    tsv = write_tsv(tmp_path / "corpus.tsv", rows)
    jsonl = _jsonl(tmp_path / "corpus.jsonl", rows[:5000])
    for path in (tsv, jsonl):
        # The first load checks the file and writes its cache; the second reads the cache.
        for load in ("check", "cache"):
            tracemalloc.start()
            try:
                table = load_corpus(path)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert _cache(path).is_file()
            assert len(table) == (20_000 if path is tsv else 5000)
            assert peak - retained < 0.75 * path.stat().st_size, (path.name, load)


def _cache(path):
    return path.with_name(f".{path.name}.dataeff-cache")


def _load_counting_checks(path, monkeypatch):
    """load_corpus(path) and how many frames it checked: 0 when it read the cache."""
    checked = []

    def counting(text):
        checked.append(text)
        return canonical_frame(text)

    canonical_frame = corpus.canonical_frame
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "canonical_frame", counting)
        table = load_corpus(path)
    return table, len(checked)


def _sharing(column):
    """Each row's first row holding the same object: equal lists mean equal sharing."""
    first = {}
    return [first.setdefault(id(value), row) for row, value in enumerate(column)]


def _bom_crlf(path, rows):
    text = "".join("\t".join(row) + "\r\n" for row in [("domain", "utterance", "semantic_parse",
                                                       "split")] + rows)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return path


def _jsonl(path, rows):
    keys = ("domain", "utterance", "semantic_parse", "split")
    path.write_text("".join(json.dumps(dict(zip(keys, row))) + "\n" for row in rows),
                    encoding="utf-8")
    return path


CACHED_ROWS = _topv2_like_rows(2500) + [
    ("weather", "a", "[IN:GET_WEATHER a [SL:LOCATION b ] ]", "train"),
    ("alarm", "c", "[IN:CREATE_ALARM [SL:DATE_TIME [IN:GET_TIME c [SL:UNIT d ] ] ] ]", "eval"),
    ("alarm", "e", "[IN:CREATE_ALARM [SL:DATE_TIME [IN:GET_TIME e ] ] [SL:UNIT f ] ]", "test"),
]


@pytest.mark.parametrize("name, write", [
    ("corpus.tsv", lambda path: write_tsv(path, CACHED_ROWS)),
    ("corpus.jsonl", lambda path: _jsonl(path, CACHED_ROWS)),
    ("corpus.tsv", lambda path: _bom_crlf(path, CACHED_ROWS)),
    ("weather_test.tsv", lambda path: write_tsv(path, [r[:3] for r in CACHED_ROWS],
                                                 with_split=False)),
])
def test_a_cached_load_equals_a_checked_load(tmp_path, monkeypatch, name, write):
    path = write(tmp_path / name)
    checked, count = _load_counting_checks(path, monkeypatch)
    assert count == len(CACHED_ROWS)
    cached, count = _load_counting_checks(path, monkeypatch)
    assert count == 0
    assert columns(cached) == columns(checked)
    assert cached._index == checked._index
    assert cached.domains() == checked.domains()
    assert _sharing(cached.labels) == _sharing(checked.labels)
    assert cached.labels[-2] == cached.labels[-1]
    assert cached.labels[-2] is not cached.labels[-1]
    assert all(label is sys.intern(label) for labels in set(cached.labels) for label in labels)
    if name == "weather_test.tsv":
        assert {split for _, split in row_keys(cached)} == {"test"}


def test_a_changed_byte_is_checked_again(tmp_path, monkeypatch):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    load_corpus(path)
    data = path.read_bytes()
    at = data.index(b" ]\t", data.index(b"\n", 1000))  # the last "]" of one row's frame
    path.write_bytes(data[:at + 1] + b"x" + data[at + 2:])
    line = data[:at].count(b"\n") + 1
    with pytest.raises(CorpusError) as exc:
        _load_counting_checks(path, monkeypatch)
    assert str(exc.value).startswith(f"{path}:{line}: bad frame: ")


def _another_code_key(path, tmp_path, monkeypatch):
    edited = tmp_path / "edited_corpus.py"
    edited.write_bytes(Path(corpus.__file__).read_bytes() + b"# edited\n")
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "__file__", str(edited))
        _load_counting_checks(path, monkeypatch)


KEY = hashlib.sha256().digest_size  # the cache file's leading key, in bytes


def _record_ends(data):
    """Where each record ends: the key, then an 8-byte head and its length of bytes."""
    ends = [KEY]
    while ends[-1] < len(data):
        ends.append(ends[-1] + 8 + int.from_bytes(data[ends[-1]:ends[-1] + 4], "little"))
    return ends[1:]


def _cut_after_first_record(data):
    """The key and the first record (the index and the split digests) only."""
    return data[:KEY + 8 + int.from_bytes(data[KEY:KEY + 4], "little")]


def _flip_a_byte(data, at=None):
    at = len(data) // 2 if at is None else at
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


@pytest.mark.parametrize("break_cache", [
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(cache.read_bytes()[:-100]),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(cache.read_bytes()[:KEY]),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(
        _cut_after_first_record(cache.read_bytes())),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(b"garbage" * 1000),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(b""),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(_flip_a_byte(cache.read_bytes())),
    lambda cache, tmp_path, monkeypatch: _another_code_key(
        cache.with_name("corpus.tsv"), tmp_path, monkeypatch),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(
        cache.read_bytes()[:_record_ends(cache.read_bytes())[1]]),
    lambda cache, tmp_path, monkeypatch: cache.write_bytes(
        _flip_a_byte(cache.read_bytes(), _record_ends(cache.read_bytes())[2] - 1)),
], ids=["truncated", "key only", "one record", "garbage", "empty", "flipped byte",
        "another code key", "cut after the labels", "flipped frame byte"])
def test_a_broken_cache_is_ignored_and_rewritten(tmp_path, monkeypatch, break_cache):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    checked = load_corpus(path)
    cache = _cache(path)
    good = cache.read_bytes()
    break_cache(cache, tmp_path, monkeypatch)
    broken = cache.read_bytes()
    assert broken != good
    table, count = _load_counting_checks(path, monkeypatch)
    assert count == len(CACHED_ROWS)
    assert columns(table) == columns(checked)
    assert cache.read_bytes() != broken
    assert _load_counting_checks(path, monkeypatch)[1] == 0


def test_a_cache_keyed_by_blake2b_misses_once_and_is_rewritten(tmp_path, monkeypatch):
    # Earlier versions keyed the cache with a 64-byte blake2b of the same inputs.
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    checked = load_corpus(path)
    cache = _cache(path)
    good = cache.read_bytes()
    code = b"".join(blake2b(Path(source).read_bytes()).digest()
                    for source in (corpus.__file__, corpus.frames.__file__, corpus.jsonio.__file__))
    old_key = blake2b(code + repr((sys.version, "_tsv_fields train")).encode())
    old_key.update(path.read_bytes())
    cache.write_bytes(old_key.digest() + good[KEY:])
    table, count = _load_counting_checks(path, monkeypatch)
    assert count == len(CACHED_ROWS)
    assert columns(table) == columns(checked)
    assert cache.read_bytes() == good
    assert _load_counting_checks(path, monkeypatch)[1] == 0


def test_a_malformed_corpus_leaves_no_cache(tmp_path):
    for path in (write_tsv(tmp_path / "bad.tsv", CACHED_ROWS + [("weather", "x", "[SL:X y ]")]),
                 _jsonl(tmp_path / "bad.jsonl", CACHED_ROWS + [("weather", "x")])):
        with pytest.raises(CorpusError):
            load_corpus(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "bad.tsv"]


def test_a_load_succeeds_when_the_cache_cannot_be_written(tmp_path, monkeypatch):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    _cache(path).mkdir()  # root ignores file modes; a directory stops the rename
    for _ in range(2):
        table, count = _load_counting_checks(path, monkeypatch)
        assert count == len(CACHED_ROWS)
    assert len(table) == len(CACHED_ROWS)
    assert _cache(path).is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [_cache(path).name, "corpus.tsv"]


def test_a_cache_owned_by_another_user_is_ignored(tmp_path, monkeypatch):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    checked = load_corpus(path)
    euid = os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: euid + 1)
    table, count = _load_counting_checks(path, monkeypatch)
    assert count == len(CACHED_ROWS)
    assert columns(table) == columns(checked)


def test_a_pipe_is_read_once_and_never_cached(tmp_path):
    path = tmp_path / "corpus.tsv"
    os.mkfifo(path)
    text = "".join("\t".join(row) + "\n" for row in [("domain", "utterance", "semantic_parse",
                                                    "split")] + CACHED_ROWS)

    def write():
        with open(path, "w", encoding="utf-8") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    table = load_corpus(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(table) == len(CACHED_ROWS)
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.tsv"]


def _counting_loads(monkeypatch):
    """Patch the cache's marshal so each decoded record is appended to the returned list."""
    decoded = []

    def loads(data):
        decoded.append(data)
        return marshal.loads(data)

    monkeypatch.setattr(corpus, "marshal", SimpleNamespace(loads=loads, dumps=marshal.dumps))
    return decoded


def _cached(path):
    """A cache hit on path, whose cache the first load writes."""
    load_corpus(path)
    return load_corpus(path)


def test_a_uniform_run_on_a_cache_hit_decodes_neither_column(tmp_path, monkeypatch):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    load_corpus(path)  # writes the cache
    decoded = _counting_loads(monkeypatch)
    table = load_corpus(path)
    manifests = build_manifests(table, "weather", make_schedule(10), seeds=(0, 1))
    assert len([SimulatedRunner(noise_sigma=0.5)(manifest) for manifest in manifests]) == 20
    assert len(table) == len(CACHED_ROWS)
    assert "parse" not in vars(table) and "labels" not in vars(table)
    assert len(decoded) == 1  # the index and the split digests


def test_a_uniform_run_with_predictions_on_a_cache_hit_decodes_only_the_frames(
        tmp_path, monkeypatch):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    load_corpus(path)  # writes the cache
    frame_records = -(-len(CACHED_ROWS) // corpus._CACHE_ROWS)
    decoded = _counting_loads(monkeypatch)
    table = load_corpus(path)
    manifests = build_manifests(table, "weather", make_schedule(10), seeds=(0, 1))
    results = [SimulatedRunner(noise_sigma=0.5, table=table)(manifest) for manifest in manifests]
    assert len(results) == 20 and all(result.predictions for result in results)
    assert "labels" not in vars(table)
    assert len(decoded) == 1 + frame_records  # the index and digests, then the frames


def test_spis_sampling_and_complexity_decode_each_column_once(tmp_path, monkeypatch):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    ledger = tmp_path / "ledger.json"
    assert cli.main(["run", "--corpus", str(path), "--target", "weather", "--n", "4",
                     "--emit-predictions", "--out", str(ledger)]) == 0
    frame_records = -(-len(CACHED_ROWS) // corpus._CACHE_ROWS)
    decoded = _counting_loads(monkeypatch)
    table = load_corpus(path)
    assert len(list(build_manifests(table, "weather", make_schedule(4), "spis", (0, 1)))) == 6
    assert len(decoded) == 2 and "parse" not in vars(table)
    decoded.clear()
    out = tmp_path / "classes.csv"
    assert cli.main(["complexity", "--ledger", str(ledger), "--corpus", str(path),
                     "--domain", "weather", "--out", str(out)]) == 0
    assert len(decoded) == 2 + frame_records


def test_runner_threads_decode_the_frames_of_a_cache_hit_safely(tmp_path, monkeypatch, capsys):
    # Each decoded record sleeps, so both runner threads read table.parse before the
    # first of them has decoded it.
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)

    def run(jobs, out):
        argv = ["run", "--corpus", str(path), "--target", "weather", "--algorithm", "uniform",
                "--emit-predictions", "--seeds", "0", "1", "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().err.endswith("20 runs: 20 ok, 0 failed -> " + str(out) + "\n")
        return out.read_bytes()

    cold = run("1", tmp_path / "cold.json")

    def slow_loads(data):
        time.sleep(0.005)
        return marshal.loads(data)

    monkeypatch.setattr(corpus, "marshal", SimpleNamespace(loads=slow_loads, dumps=marshal.dumps))
    assert run("2", tmp_path / "two.json") == cold
    assert run("1", tmp_path / "one.json") == cold


@pytest.mark.parametrize("load", ["checked", "cached"])
def test_split_digest_is_the_digest_of_the_split_frames(tmp_path, load):
    # Only the test split is digested: a ledger is scored on it and on no other split.
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    table = load_corpus(path) if load == "checked" else _cached(path)
    for domain in table.domains():
        text = "\n".join(table.parse[row] for row in table.row_ids(domain, "test"))
        assert table.test_digest(domain) == blake2b(text.encode("utf-8"),
                                                    digest_size=16).hexdigest()
    with pytest.raises(UnknownDomainError, match="domain 'mail' not in corpus"):
        table.test_digest("mail")


def test_threads_racing_to_read_the_columns_of_a_cache_hit_all_see_them(tmp_path):
    path = write_tsv(tmp_path / "corpus.tsv", CACHED_ROWS)
    checked = load_corpus(path)  # writes the cache
    expected = {"parse": checked.parse, "labels": checked.labels}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = load_corpus(path)
            seen, start = [], threading.Barrier(8)

            def read(name):
                start.wait(timeout=10)
                seen.append((name, getattr(table, name)))

            threads = [threading.Thread(target=read, args=(name,))
                       for name in ("parse", "labels") * 4]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 8
            assert all(column == expected[name] for name, column in seen)
    finally:
        sys.setswitchinterval(interval)
