
import pytest

from dataeff.analysis import (
    COMPLEXITY_CLASSES,
    compare_models,
    load_annotations,
    packaged_annotations,
    per_class_curves,
    per_intent_points,
    reference_comparison,
)
from dataeff.corpus import CorpusTable
from dataeff.curve import CurveModel, EfficiencyPoint
from dataeff.errors import AnalysisError, AnnotationError
from dataeff.protocol import Ledger, LedgerEntry, Protocol, RunResult

NONE, CLOSED, SEMI, OPEN = "none", "closed", "semi", "open"

# Stock annotation contents, asserted label-for-label against the packaged CSVs.
PACKAGED = {
    "music": {
        "IN:ADD_TO_PLAYLIST_MUSIC": OPEN, "IN:CREATE_PLAYLIST_MUSIC": OPEN,
        "IN:DISLIKE_MUSIC": CLOSED, "IN:LIKE_MUSIC": CLOSED, "IN:LOOP_MUSIC": CLOSED,
        "IN:PAUSE_MUSIC": CLOSED, "IN:PLAY_MUSIC": SEMI, "IN:PREVIOUS_TRACK_MUSIC": NONE,
        "IN:REMOVE_FROM_PLAYLIST_MUSIC": SEMI, "IN:REPLAY_MUSIC": CLOSED,
        "IN:SET_DEFAULT_PROVIDER_MUSIC": CLOSED, "IN:SKIP_TRACK_MUSIC": CLOSED,
        "IN:START_SHUFFLE_MUSIC": CLOSED, "IN:STOP_MUSIC": CLOSED,
    },
    "messaging": {
        "IN:CANCEL_MESSAGE": NONE, "IN:GET_MESSAGE": SEMI, "IN:IGNORE_MESSAGE": NONE,
        "IN:REACT_MESSAGE": CLOSED, "IN:SEND_MESSAGE": OPEN,
    },
    "reminder": {
        "IN:CREATE_REMINDER": OPEN, "IN:DELETE_REMINDER": OPEN,
        "IN:GET_RECURRING_DATE_TIME": SEMI, "IN:GET_REMINDER": OPEN, "IN:GET_TODO": OPEN,
        "IN:SEND_MESSAGE": OPEN, "IN:UPDATE_REMINDER": OPEN,
        "IN:UPDATE_REMINDER_DATE_TIME": OPEN,
    },
    "timer": {
        "IN:ADD_TIME_TIMER": CLOSED, "IN:CREATE_TIMER": CLOSED, "IN:DELETE_TIMER": NONE,
        "IN:GET_TIME": SEMI, "IN:GET_TIMER": NONE, "IN:PAUSE_TIMER": NONE,
        "IN:RESTART_TIMER": NONE, "IN:RESUME_TIMER": NONE,
        "IN:SUBTRACT_TIME_TIMER": CLOSED, "IN:UPDATE_TIMER": CLOSED,
    },
    "weather": {
        "IN:GET_SUNRISE": SEMI, "IN:GET_SUNSET": SEMI, "IN:GET_WEATHER": SEMI,
    },
}


def test_class_order():
    assert COMPLEXITY_CLASSES == (NONE, CLOSED, SEMI, OPEN)


def test_load_annotations_reads_a_class_by_its_name(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("intent,class\nIN:A, OPEN \nIN:B,Semi\n", encoding="utf-8")
    assert load_annotations(path) == {"IN:A": "open", "IN:B": "semi"}
    path.write_text("intent,class\nIN:A,open\nIN:B,weird\n", encoding="utf-8")
    with pytest.raises(AnnotationError) as exc:
        load_annotations(path)
    assert str(exc.value) == (
        f"{path}:3: unknown complexity class 'weird' (expected none, closed, semi, open)")


@pytest.mark.parametrize("domain", sorted(PACKAGED))
def test_packaged_annotations_match_reference(domain):
    assert packaged_annotations(domain) == PACKAGED[domain]


def test_packaged_annotations_unknown_domain():
    with pytest.raises(AnnotationError):
        packaged_annotations("navigation")


def test_load_annotations_errors(tmp_path):
    bad_class = tmp_path / "a.csv"
    bad_class.write_text("intent,class\nIN:Y,open\nIN:X,weird\n", encoding="utf-8")
    with pytest.raises(AnnotationError) as exc:
        load_annotations(bad_class)
    assert str(exc.value).startswith(f"{bad_class}:3: unknown complexity class 'weird'")

    duplicate = tmp_path / "b.csv"
    duplicate.write_text("intent,class\nIN:X,open\nIN:X,closed\n", encoding="utf-8")
    with pytest.raises(AnnotationError):
        load_annotations(duplicate)

    bad_header = tmp_path / "c.csv"
    bad_header.write_text("name,level\nIN:X,open\n", encoding="utf-8")
    with pytest.raises(AnnotationError):
        load_annotations(bad_header)

    bad_prefix = tmp_path / "d.csv"
    bad_prefix.write_text("intent,class\nSL:X,open\n", encoding="utf-8")
    with pytest.raises(AnnotationError):
        load_annotations(bad_prefix)


def test_load_annotations_skips_blank_rows_and_counts_columns(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("intent,class\nIN:A,open\n\nIN:B,closed\n", encoding="utf-8")
    assert load_annotations(path) == {"IN:A": OPEN, "IN:B": CLOSED}
    path.write_bytes(b"intent,class\rIN:A,open\r\rIN:B,closed\r")  # rows ending in a lone \r
    assert load_annotations(path) == {"IN:A": OPEN, "IN:B": CLOSED}
    path.write_text("intent,class\nIN:A,open\nIN:B,closed,extra\n", encoding="utf-8")
    with pytest.raises(AnnotationError) as exc:
        load_annotations(path)
    assert str(exc.value) == f"{path}:3: expected 2 columns, got 3"
    assert exc.value.line == 3


def _music_test_table(play=12):
    """music test split: PLAY x12, STOP x10, LIKE x9 (below the threshold)."""
    rows = []
    for intent, count in (("IN:PLAY_MUSIC", play), ("IN:STOP_MUSIC", 10), ("IN:LIKE_MUSIC", 9)):
        for i in range(count):
            rows.append(("music", f"{intent} {i}", f"[{intent} song{i} ]", "test"))
    rows.append(("music", "train row", "[IN:PLAY_MUSIC x ]", "train"))
    return CorpusTable(rows)


def _ledger(table, *entries):
    """A ledger of entries on music, the table's only domain."""
    protocol = Protocol(model_id="parser", target_domain="music", algorithm="uniform",
                        n_source_train=0, n_eval=0, n_test=31,
                        test_digest=table.test_digest("music"))
    return Ledger(2, protocol, entries)


def _entry(percent, result, seed=0):
    """A run at percent and seed, named as _ledger's header names it."""
    return LedgerEntry(run_id=f"parser.music.uniform{percent:g}.s{seed}",
                       size_param=float(percent), seed=seed,
                       subset_percent=float(percent), subset_size=0, result=result, error=None)


def _prediction_ledger(table, wrong_play=0, wrong_text="[IN:PLAY_MUSIC totally wrong ]",
                       rewrites=()):
    """One run at k=4: STOP/LIKE rows all correct, wrong_play PLAY rows replaced by
    wrong_text; each function in rewrites then rewrites the next PLAY row's text."""
    predictions = []
    edits = [lambda text: wrong_text] * wrong_play + list(rewrites)
    for pos in table.row_ids("music", "test"):
        text = table.parse[pos]
        if table.labels[pos][0] == "IN:PLAY_MUSIC" and edits:
            text = edits.pop(0)(text)
        predictions.append(text)
    result = RunResult(exact_match=0.0, predictions=tuple(predictions))
    return _ledger(table, _entry(4, result))


def test_per_intent_all_correct():
    table = _music_test_table()
    points = per_intent_points(_prediction_ledger(table), table)
    assert sorted(points) == ["IN:PLAY_MUSIC", "IN:STOP_MUSIC"]  # LIKE dropped (<10 rows)
    for intent in points:
        assert [p.exact_match for p in points[intent]] == [100.0]
        assert points[intent][0].subset_percent == 4.0


def test_per_intent_half_correct_hand_count():
    table = _music_test_table()
    points = per_intent_points(_prediction_ledger(table, wrong_play=6), table)
    assert [p.exact_match for p in points["IN:PLAY_MUSIC"]] == [50.0]
    assert [p.exact_match for p in points["IN:STOP_MUSIC"]] == [100.0]


def test_per_intent_unparseable_prediction_is_a_miss():
    table = _music_test_table()
    ledger = _prediction_ledger(table, wrong_play=3, wrong_text="[IN:PLAY_MUSIC unbalanced")
    points = per_intent_points(ledger, table)
    assert [p.exact_match for p in points["IN:PLAY_MUSIC"]] == [75.0]


def test_per_intent_compares_canonical_forms():
    table = _music_test_table()
    rewrites = [
        lambda text: "\t " + text.replace(" ", "  \n") + " ",  # other whitespace: hit
        lambda text: text.replace(" ]", "]"),  # glued closing bracket: hit
        lambda text: text + " ]",  # trailing garbage: miss
        lambda text: text.replace("IN:PLAY_MUSIC", "IN:play_music"),  # bad label: miss
        lambda text: text.replace(" ]", " [IN:STOP_MUSIC ] ]"),  # intent in intent: miss
    ]
    points = per_intent_points(_prediction_ledger(table, rewrites=rewrites), table)
    assert [p.exact_match for p in points["IN:PLAY_MUSIC"]] == [100.0 * 9 / 12]
    assert [p.exact_match for p in points["IN:STOP_MUSIC"]] == [100.0]


def test_per_intent_requires_predictions():
    table = _music_test_table()
    result = RunResult(exact_match=90.0)
    ledger = _ledger(table, _entry(4, result))
    with pytest.raises(AnalysisError):
        per_intent_points(ledger, table)


def test_per_intent_threshold_is_configurable():
    table = _music_test_table()
    points = per_intent_points(_prediction_ledger(table), table, min_test_occurrences=9)
    assert "IN:LIKE_MUSIC" in points


def test_per_intent_rejects_a_ledger_of_another_test_split():
    # A positional list read against another split would score the wrong rows.
    ledger = _prediction_ledger(_music_test_table())
    message = "^the ledger's runs were scored on another music test split than this corpus's$"
    with pytest.raises(AnalysisError, match=message):
        per_intent_points(ledger, _music_test_table(play=13))


def test_per_intent_rejects_a_split_of_the_same_size_in_another_order():
    table = _music_test_table()
    rows = [("music", "", frame, "test") for frame in reversed(
        [table.parse[pos] for pos in table.row_ids("music", "test")])]
    swapped = CorpusTable(rows + [("music", "train row", "[IN:PLAY_MUSIC x ]", "train")])
    with pytest.raises(AnalysisError, match="were scored on another music test split"):
        per_intent_points(_prediction_ledger(table), swapped)


def _toy_annotations():
    return {"IN:A": CLOSED, "IN:B": CLOSED, "IN:C": SEMI, "IN:D": OPEN}


def _series(points):
    assert all(type(p) is EfficiencyPoint and p.seed == 0 for p in points)
    return [(p.subset_percent, p.exact_match) for p in points]


def test_per_class_curves_hand_means():
    per_intent = {
        "IN:A": [EfficiencyPoint(1, 80.0), EfficiencyPoint(12, 90.0)],
        "IN:B": [EfficiencyPoint(1, 90.0)],
        "IN:C": [EfficiencyPoint(1, 70.0), EfficiencyPoint(12, 85.0)],
        "IN:D": [EfficiencyPoint(1, 50.0)],
    }
    curves = per_class_curves(per_intent, _toy_annotations())
    assert _series(curves[CLOSED]) == [(1.0, 85.0), (12.0, 90.0)]
    assert _series(curves[SEMI]) == [(1.0, 70.0), (12.0, 85.0)]
    assert _series(curves[OPEN]) == [(1.0, 50.0)]
    assert curves[NONE] == []  # no members -> empty series


def test_per_class_single_member_equals_intent():
    per_intent = {"IN:C": [EfficiencyPoint(1, 61.0), EfficiencyPoint(7, 72.0)]}
    curves = per_class_curves(per_intent, {"IN:C": SEMI})
    assert _series(curves[SEMI]) == [(1.0, 61.0), (7.0, 72.0)]


def test_per_class_means_stay_within_member_range():
    per_intent = {
        "IN:A": [EfficiencyPoint(1, 62.0)],
        "IN:B": [EfficiencyPoint(1, 96.0)],
    }
    curves = per_class_curves(per_intent, {"IN:A": CLOSED, "IN:B": CLOSED})
    (point,) = curves[CLOSED]
    assert 62.0 <= point.exact_match <= 96.0


def test_per_class_points_pool_the_seeds_of_one_ledger():
    table = _music_test_table()
    ledgers = [_prediction_ledger(table, wrong_play=n) for n in (0, 6)]
    entries = [_entry(e.size_param, e.result, seed=i)
               for i, ledger in enumerate(ledgers) for e in ledger.entries]
    per_intent = per_intent_points(_ledger(table, *entries), table)
    curves = per_class_curves(per_intent, packaged_annotations("music"))
    assert _series(curves[SEMI]) == [(4.0, 75.0)]  # PLAY: seeds at 100 and 50
    assert _series(curves[CLOSED]) == [(4.0, 100.0)]  # STOP


def test_per_class_requires_annotations():
    per_intent = {"IN:MYSTERY": [EfficiencyPoint(1, 50.0)]}
    with pytest.raises(AnalysisError):
        per_class_curves(per_intent, _toy_annotations())


def _model(a, b, c):
    return CurveModel(a, b, c, 0.0, 0, True, (1.0, 100.0))


def test_compare_models_larger_b_needs_less_data():
    curves = {"slow": _model(-27.26, 0.3, 97.79), "fast": _model(-27.26, 0.5, 97.79)}
    table = compare_models(curves, [80.0, 90.0, 95.0])
    by_model = dict(table.rows)
    for i in range(3):
        assert by_model["fast"][i].percent < by_model["slow"][i].percent
    assert table.rows[0][0] == "fast"  # sorted most data-efficient first


def test_compare_models_unreachable_marker():
    curves = {"m1": _model(-27.26, 0.3, 97.79), "m2": _model(-20.0, 0.5, 95.0)}
    table = compare_models(curves, [99.0])
    for _, cells in table.rows:
        assert cells[0].percent is None
    assert table.to_csv().splitlines()[1:] == ["m1,unreachable", "m2,unreachable"]


def test_compare_models_insertion_order_irrelevant():
    m1, m2 = _model(-27.26, 0.3, 97.79), _model(-27.26, 0.5, 97.79)
    t1 = compare_models({"s": m1, "f": m2}, [90.0])
    t2 = compare_models({"f": m2, "s": m1}, [90.0])
    assert t1.rows == t2.rows


def test_compare_models_preconditions():
    with pytest.raises(AnalysisError):
        compare_models({"only": _model(-10, 0.5, 90)}, [80.0])
    with pytest.raises(AnalysisError):
        compare_models({"a": _model(-10, 0.5, 90), "b": _model(-9, 0.5, 91)}, [])
    with pytest.raises(AnalysisError):
        compare_models({"a": _model(10, 0.5, 90), "b": _model(-9, 0.5, 91)}, [80.0])


def test_reference_comparison_weather():
    table = reference_comparison("weather")
    assert table.em_targets == (90.0,)
    rows = {model: cells for model, cells in table.rows}
    assert rows["RoBERTa Span Pointer"][0].percent == pytest.approx(30.67)
    assert rows["BART AR"][0].percent == pytest.approx(32.85)
    assert rows["RoBERTa NAR"][0].percent == pytest.approx(36.90)
    assert table.rows[0][0] == "RoBERTa Span Pointer"  # most data-efficient first
    assert "30.67" in table.to_csv()
    assert "30.67" in table.to_text()


def test_reference_comparison_reminder_missing_cells():
    table = reference_comparison("reminder")
    assert table.em_targets == (70.0, 80.0)
    rows = {model: cells for model, cells in table.rows}
    assert rows["BART AR"][0].percent == pytest.approx(8.46)
    assert rows["RoBERTa NAR"][0].percent == pytest.approx(13.24)
    assert rows["RoBERTa Span Pointer"][1].percent == pytest.approx(33.47)
    assert rows["RoBERTa Span Pointer"][0] is None
    assert "RoBERTa Span Pointer,-,33.47" in table.to_csv().splitlines()


def test_reference_comparison_unknown_domain():
    with pytest.raises(AnalysisError):
        reference_comparison("event")


def test_comparison_table_formats():
    table = compare_models(
        {"fast": _model(-27.26, 0.5, 97.79), "slow": _model(-27.26, 0.3, 97.79)},
        [80.0, 99.0],
    )
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "model,em_80,em_99"
    text = table.to_text()
    assert text.splitlines()[0].split() == ["model", "em=80%", "em=99%"]
    assert "unreachable" in text
