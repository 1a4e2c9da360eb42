import random

import pytest

from dataeff.errors import FrameParseError
from dataeff.frames import (
    Frame,
    FrameNode,
    exact_match,
    ontology_labels,
    parse_frame,
    serialize_frame,
)
from conftest import random_frame

WEATHER_TEXT = "[IN:GET_WEATHER what s the [SL:LOCATION boston ] forecast ]"


def test_parse_single_intent():
    frame = parse_frame("[IN:GET_WEATHER ]")
    assert frame.root == FrameNode("intent", "IN:GET_WEATHER", ())


def test_parse_weather_tree_hand_trace():
    frame = parse_frame(WEATHER_TEXT)
    expected = Frame(
        FrameNode(
            "intent",
            "IN:GET_WEATHER",
            (
                FrameNode("token", "what"),
                FrameNode("token", "s"),
                FrameNode("token", "the"),
                FrameNode("slot", "SL:LOCATION", (FrameNode("token", "boston"),)),
                FrameNode("token", "forecast"),
            ),
        )
    )
    assert frame == expected


def test_parse_root_slot_rejected():
    with pytest.raises(FrameParseError) as exc:
        parse_frame("[SL:LOCATION boston ]")
    assert "not an intent" in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
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
    ],
)
def test_parse_errors_report_offsets(text, fragment):
    with pytest.raises(FrameParseError) as exc:
        parse_frame(text)
    assert fragment in str(exc.value)
    assert exc.value.offset >= 0


def test_error_offset_points_at_fault():
    with pytest.raises(FrameParseError) as exc:
        parse_frame("[IN:GET_WEATHER ] x")
    assert exc.value.offset == 18


def test_serialize_single_node():
    frame = Frame(FrameNode("intent", "IN:GET_SUNRISE", ()))
    assert serialize_frame(frame) == "[IN:GET_SUNRISE ]"


def test_weather_tree_round_trip_is_canonical():
    assert serialize_frame(parse_frame(WEATHER_TEXT)) == WEATHER_TEXT


def test_whitespace_normalizes_to_canonical():
    messy = "  [IN:GET_WEATHER   what  s the\t[SL:LOCATION  boston ]   forecast ]  "
    assert serialize_frame(parse_frame(messy)) == WEATHER_TEXT


def test_round_trip_property():
    rng = random.Random(20240817)
    for _ in range(300):
        frame = random_frame(rng)
        text = serialize_frame(frame)
        again = parse_frame(text)
        assert again == frame
        assert serialize_frame(again) == text  # idempotent


def test_exact_match_identity():
    frames = [parse_frame(WEATHER_TEXT), parse_frame("[IN:GET_SUNSET now ]")]
    assert exact_match(frames, frames) == 100.0


def test_exact_match_half():
    a = [parse_frame("[IN:GET_WEATHER ]"), parse_frame("[IN:GET_SUNSET ]")]
    b = [parse_frame("[IN:GET_WEATHER ]"), parse_frame("[IN:GET_SUNRISE ]")]
    assert exact_match(a, b) == 50.0


def test_exact_match_errors():
    frame = parse_frame("[IN:GET_WEATHER ]")
    with pytest.raises(ValueError):
        exact_match([], [])
    with pytest.raises(ValueError):
        exact_match([frame], [frame, frame])


def test_exact_match_symmetric():
    rng = random.Random(7)
    a = [random_frame(rng) for _ in range(20)]
    b = [random_frame(rng) for _ in range(20)]
    assert exact_match(a, b) == exact_match(b, a)


def test_ontology_labels_single():
    assert ontology_labels(parse_frame("[IN:STOP_MUSIC ]")) == {"IN:STOP_MUSIC": 1}


def test_ontology_labels_weather():
    counts = ontology_labels(parse_frame(WEATHER_TEXT))
    assert counts == {"IN:GET_WEATHER": 1, "SL:LOCATION": 1}


def test_ontology_labels_repeated_slot():
    frame = parse_frame("[IN:GET_WEATHER [SL:LOCATION a ] [SL:LOCATION b ] ]")
    assert ontology_labels(frame)["SL:LOCATION"] == 2


def test_label_total_matches_bracket_count():
    rng = random.Random(99)
    for _ in range(100):
        frame = random_frame(rng)
        total = sum(ontology_labels(frame).values())
        assert total == serialize_frame(frame).count("[")


def test_unicode_tokens_round_trip():
    text = "[IN:GET_WEATHER prévisions [SL:LOCATION zürich_東京 ] ]"
    frame = parse_frame(text)
    assert serialize_frame(frame) == text
