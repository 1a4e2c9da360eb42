import random
import sys
from collections import Counter

import pytest

from dataeff.errors import FrameParseError
from dataeff import frames
from dataeff.frames import _TOKEN, canonical_frame, exact_match, _skeletons, _tokens
from conftest import random_frame
from reference_frames import reference_parse, serialize_tree, tree_labels

WEATHER_TEXT = "[IN:GET_WEATHER what s the [SL:LOCATION boston ] forecast ]"


def labels_of(text):
    return Counter(canonical_frame(text)[1])


def test_parse_single_intent():
    assert canonical_frame("[IN:GET_WEATHER ]") == ("[IN:GET_WEATHER ]", ("IN:GET_WEATHER",))


def test_parse_weather_tree_hand_trace():
    assert canonical_frame(WEATHER_TEXT) == (WEATHER_TEXT, ("IN:GET_WEATHER", "SL:LOCATION"))


def test_parse_root_slot_rejected():
    with pytest.raises(FrameParseError) as exc:
        canonical_frame("[SL:LOCATION boston ]")
    assert "not an intent" in str(exc.value)


PARSE_ERRORS = [
    ("", "empty input"),
    ("hello", "must start with"),
    ("[IN:GET_WEATHER", "unbalanced"),
    ("[IN: ]", "malformed label"),
    ("[IN:GET_WEATHER ] trailing", "trailing garbage"),
    ("[IN:GET_WEATHER ] ]", "trailing garbage"),
    ("[FOO bar ]", "not an intent"),
    ("[IN:GET_WEATHER [IN:GET_SUNSET ] ]", "intent nodes may only nest slots"),
    ("[IN:GET_WEATHER [SL:A [SL:B x ] ] ]", "slot nodes may only nest intents"),
    ("[IN:bad_case ]", "malformed label"),
]


@pytest.mark.parametrize("text,fragment", PARSE_ERRORS)
def test_parse_errors_report_offsets(text, fragment):
    with pytest.raises(FrameParseError) as exc:
        canonical_frame(text)
    assert fragment in str(exc.value)
    assert exc.value.offset >= 0


def test_error_offset_points_at_fault():
    with pytest.raises(FrameParseError) as exc:
        canonical_frame("[IN:GET_WEATHER ] x")
    assert exc.value.offset == 18


def test_serialize_single_node():
    assert canonical_frame("[IN:GET_SUNRISE]")[0] == "[IN:GET_SUNRISE ]"


def test_weather_tree_round_trip_is_canonical():
    assert canonical_frame(WEATHER_TEXT)[0] == WEATHER_TEXT


MESSY_WEATHER = "  [IN:GET_WEATHER   what  s the\t[SL:LOCATION  boston ]   forecast ]  "


def test_whitespace_normalizes_to_canonical():
    assert canonical_frame(MESSY_WEATHER)[0] == WEATHER_TEXT


def test_round_trip_property():
    rng = random.Random(20240817)
    for _ in range(300):
        frame = random_frame(rng)
        text = serialize_tree(frame)
        canonical, labels = canonical_frame(text)
        assert canonical == text
        assert list(labels) == tree_labels(frame)
        assert canonical_frame(canonical) == (canonical, labels)  # idempotent


def test_exact_match_identity():
    frames = [canonical_frame(WEATHER_TEXT)[0], canonical_frame("[IN:GET_SUNSET now ]")[0]]
    assert exact_match(frames, frames) == 100.0


def test_exact_match_half():
    a = [canonical_frame("[IN:GET_WEATHER ]")[0], canonical_frame("[IN:GET_SUNSET ]")[0]]
    b = [canonical_frame("[IN:GET_WEATHER]")[0], canonical_frame("[IN:GET_SUNRISE ]")[0]]
    assert exact_match(a, b) == 50.0


def test_exact_match_errors():
    frame = canonical_frame("[IN:GET_WEATHER ]")[0]
    with pytest.raises(ValueError):
        exact_match([], [])
    with pytest.raises(ValueError):
        exact_match([frame], [frame, frame])


def test_exact_match_symmetric():
    rng = random.Random(7)
    a = [serialize_tree(random_frame(rng)) for _ in range(20)]
    b = [serialize_tree(random_frame(rng)) for _ in range(20)]
    assert exact_match(a, b) == exact_match(b, a)


def test_ontology_labels_single():
    assert labels_of("[IN:STOP_MUSIC ]") == {"IN:STOP_MUSIC": 1}


def test_ontology_labels_weather():
    assert labels_of(WEATHER_TEXT) == {"IN:GET_WEATHER": 1, "SL:LOCATION": 1}


def test_ontology_labels_repeated_slot():
    assert labels_of("[IN:GET_WEATHER [SL:LOCATION a ] [SL:LOCATION b ] ]")["SL:LOCATION"] == 2


def test_label_total_matches_bracket_count():
    rng = random.Random(99)
    for _ in range(100):
        canonical, labels = canonical_frame(serialize_tree(random_frame(rng)))
        assert len(labels) == canonical.count("[")


UNICODE_TEXT = "[IN:GET_WEATHER prévisions [SL:LOCATION zürich_東京 ] ]"


def test_unicode_tokens_round_trip():
    assert canonical_frame(UNICODE_TEXT)[0] == UNICODE_TEXT


_SPACES = (" ", "\t", "\n", "\u00a0", "\u2028")


def _gap(rng, least=1):
    return "".join(rng.choice(_SPACES) for _ in range(rng.randint(least, 3)))


def _respace(rng, text):
    """Canonical text's tokens rejoined by random whitespace runs; where the
    grammar allows it, a bracket is sometimes glued to its neighbour."""
    tokens = text.split(" ")
    out = [_gap(rng, 0), tokens[0]]
    for prev, token in zip(tokens, tokens[1:]):
        gluable = token == "]" or token.startswith("[") or prev == "]"
        out.append("" if gluable and rng.random() < 0.3 else _gap(rng))
        out.append(token)
    out.append(_gap(rng, 0))
    return "".join(out)


def test_canonical_frame_agrees_with_reference_parser():
    rng = random.Random(20261018)
    for _ in range(1000):
        frame = random_frame(rng)
        text = _respace(rng, serialize_tree(frame))
        tree = reference_parse(text)
        assert tree == frame
        canonical, labels = canonical_frame(text)
        assert canonical == serialize_tree(tree)
        assert list(labels) == tree_labels(tree)
        assert labels[0] == tree.text


def _mutate(rng, text):
    """One of: drop a bracket, lowercase a label, add a stray token at the
    root level, nest an intent directly in an intent, insert a character."""
    tokens = text.split(" ")
    openers = [i for i, token in enumerate(tokens) if token.startswith("[")]
    choice = rng.randrange(5)
    if choice == 0:
        i = rng.choice([i for i, token in enumerate(tokens) if token[0] in "[]"])
        tokens[i] = tokens[i][1:]
    elif choice == 1:
        i = rng.choice(openers)
        cut = rng.choice((1, 4))
        tokens[i] = tokens[i][:cut] + tokens[i][cut:].lower()
    elif choice == 2:
        stray = rng.choice(("x", "]", "[IN:GET_SUNSET ]", "[SL:LOCATION x ]"))
        tokens.insert(rng.choice((0, len(tokens))), stray)
    elif choice == 3:
        i = rng.choice([i for i in openers if tokens[i].startswith("[IN:")])
        tokens.insert(i + 1, "[IN:GET_SUNSET x ]")
    else:
        i = rng.randrange(len(tokens))
        at = rng.randrange(len(tokens[i]) + 1)
        tokens[i] = tokens[i][:at] + rng.choice("[] :INSL_a") + tokens[i][at:]
    return " ".join(token for token in tokens if token)


def _outcome(parse, text):
    try:
        return parse(text)
    except FrameParseError as exc:
        return f"error: {exc}"


def test_mutated_frames_fail_as_in_reference_parser():
    rng = random.Random(1018)
    rejected = 0
    for _ in range(1500):
        text = _respace(rng, _mutate(rng, serialize_tree(random_frame(rng))))
        expected = _outcome(reference_parse, text)
        if isinstance(expected, str):
            rejected += 1
            assert _outcome(canonical_frame, text) == expected, text
        else:
            assert canonical_frame(text) == (serialize_tree(expected), tuple(tree_labels(expected)))
    assert 1000 <= rejected < 1500


def test_tokens_equal_the_token_regex_on_every_code_point():
    step = 1 << 12
    for start in range(0, sys.maxunicode + 1, step):
        chars = map(chr, range(start, min(start + step, sys.maxunicode + 1)))
        text = "".join(f"[x{ch}y]{ch}w{ch}[{ch}" for ch in chars)
        assert _tokens(text) == _TOKEN.findall(text), hex(start)


@pytest.mark.parametrize("text", ["x [IN:A y ]", "[IN:A y ] z", "x [IN:A [SL:B y ] ]"])
def test_memoized_skeleton_with_stray_word_fails_as_reference(text):
    canonical_frame("[IN:A w ]")
    canonical_frame("[IN:A [SL:B w ] ]")
    assert {("[IN:A", "]"), ("[IN:A", "[SL:B", "]", "]")} <= _skeletons.keys()
    expected = _outcome(reference_parse, text)
    assert expected.startswith("error: ")
    assert _outcome(canonical_frame, text) == expected


def test_frames_with_one_skeleton_share_labels():
    first = canonical_frame("[IN:GET_WEATHER what s the [SL:LOCATION boston ] ]")
    second = canonical_frame("[IN:GET_WEATHER  [SL:LOCATION\tparis france ] today ]")
    assert first[1] == ("IN:GET_WEATHER", "SL:LOCATION")
    assert second[1] is first[1]
    assert canonical_frame("[IN:GET_WEATHER [SL:DATE_TIME x ] ]")[1] is not first[1]


def test_skeleton_memo_is_emptied_when_full(monkeypatch):
    monkeypatch.setattr(frames, "_SKELETON_MEMO_SIZE", 2)
    for _ in range(2):
        for name in "ABCDE":  # five skeletons
            text = f"[IN:{name} w [SL:{name} x ] ]"
            assert canonical_frame(text) == (text, (f"IN:{name}", f"SL:{name}"))
            assert len(_skeletons) <= 2


def _hit_rule_cases():
    """(system, reference) pairs over this file's frames, each reference canonical.

    The hand-written frames meet each reference; the frames of the reference-parser
    tests, drawn as they draw them, meet the frame they were drawn from, and a
    mutated frame that parses also meets its own canonical text.
    """
    texts = [WEATHER_TEXT, MESSY_WEATHER, UNICODE_TEXT, "[IN:GET_SUNRISE]",
             "[IN:GET_WEATHER ]", "[IN:GET_WEATHER ] x", "x [IN:A y ]", "[IN:A y ] z",
             "[IN:A  y]", "[IN:GET_WEATHER  [SL:LOCATION\tparis france ] today ]",
             *(text for text, _ in PARSE_ERRORS)]
    references = [WEATHER_TEXT, UNICODE_TEXT, "[IN:GET_SUNRISE ]", "[IN:GET_WEATHER ]",
                  "[IN:A y ]", "[IN:GET_WEATHER [SL:LOCATION paris france ] today ]"]
    yield from ((text, reference) for text in texts for reference in references)
    rng = random.Random(20261018)  # as in test_canonical_frame_agrees_with_reference_parser
    for _ in range(1000):
        canonical = serialize_tree(random_frame(rng))
        yield _respace(rng, canonical), canonical
    rng = random.Random(1018)  # as in test_mutated_frames_fail_as_in_reference_parser
    for _ in range(1500):
        canonical = serialize_tree(random_frame(rng))
        text = _respace(rng, _mutate(rng, canonical))
        yield text, canonical
        tree = _outcome(reference_parse, text)
        if not isinstance(tree, str):
            yield text, serialize_tree(tree)


def test_exact_match_is_the_parse_rule():
    hits = 0
    for system, reference in _hit_rule_cases():
        parsed = _outcome(canonical_frame, system)  # a FrameParseError text is no frame
        same = not isinstance(parsed, str) and parsed[0] == reference
        assert exact_match([system], [reference]) == (100.0 if same else 0.0), (system, reference)
        hits += same and system != reference
    assert hits >= 1000  # non-canonical frames that match
