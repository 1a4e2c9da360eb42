"""Seeded generator of TOPv2-shaped corpora for the benchmark.

The corpus has eight domains with train/eval/test splits, bracketed frames
with nested slots (a slot may hold an intent that has slots of its own) and
long-tailed intent and slot frequencies, so SPIS subsets cover a wide range
of percents. Labels use only ``A-Z _ :``. The intents of the five annotated
domains are the ones in the package's annotation CSVs, so the per-intent
complexity analysis finds every class it needs.

This module imports nothing from ``dataeff``: a change to the program can
never change the benchmark's inputs. Every draw comes from one
``random.Random(seed)`` stream through ``random()`` only, whose sequence
Python keeps stable for a given integer seed, and rows are generated in a
fixed order, so one seed always gives byte-identical files.

Run ``python3 bench/corpus_gen.py --seed 7 --scale 1.0 --out corpus.tsv`` to
write a corpus by hand.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
from pathlib import Path

# (domain, train, eval, test) at scale 1.0: ~176k rows, the TOPv2 domain mix,
# with ~15.9k weather train rows.
SPLIT_SIZES = (
    ("alarm", 20430, 2935, 7123),
    ("event", 9170, 1336, 3665),
    ("messaging", 10018, 1446, 3552),
    ("music", 11563, 1573, 5184),
    ("navigation", 20998, 2842, 6075),
    ("reminder", 17840, 2526, 5767),
    ("timer", 11524, 1616, 4252),
    ("weather", 15875, 2667, 5682),
)

# Intents in frequency-rank order. Those of messaging, music, reminder, timer
# and weather are exactly the packaged annotation CSVs' intents.
INTENTS = {
    "alarm": ("CREATE_ALARM", "GET_ALARM", "DELETE_ALARM", "SILENCE_ALARM",
              "UPDATE_ALARM", "SNOOZE_ALARM", "RESUME_ALARM", "GET_TIME"),
    "event": ("GET_EVENT", "GET_INFO_TRAFFIC", "GET_EVENT_ATTENDEE",
              "GET_EVENT_ORGANIZER", "GET_EVENT_ATTENDEE_AMOUNT"),
    "messaging": ("SEND_MESSAGE", "GET_MESSAGE", "REACT_MESSAGE",
                  "IGNORE_MESSAGE", "CANCEL_MESSAGE"),
    "music": ("PLAY_MUSIC", "PAUSE_MUSIC", "SKIP_TRACK_MUSIC", "LIKE_MUSIC",
              "ADD_TO_PLAYLIST_MUSIC", "STOP_MUSIC", "CREATE_PLAYLIST_MUSIC",
              "PREVIOUS_TRACK_MUSIC", "START_SHUFFLE_MUSIC", "REPLAY_MUSIC",
              "LOOP_MUSIC", "DISLIKE_MUSIC", "REMOVE_FROM_PLAYLIST_MUSIC",
              "SET_DEFAULT_PROVIDER_MUSIC"),
    "navigation": ("GET_ESTIMATED_DURATION", "GET_DIRECTIONS", "GET_INFO_TRAFFIC",
                   "GET_DISTANCE", "GET_ESTIMATED_ARRIVAL", "UPDATE_DIRECTIONS",
                   "GET_LOCATION", "GET_ESTIMATED_DEPARTURE", "GET_INFO_ROAD_CONDITION"),
    "reminder": ("CREATE_REMINDER", "GET_REMINDER", "DELETE_REMINDER",
                 "UPDATE_REMINDER_DATE_TIME", "UPDATE_REMINDER", "GET_TODO",
                 "SEND_MESSAGE", "GET_RECURRING_DATE_TIME"),
    "timer": ("CREATE_TIMER", "GET_TIMER", "PAUSE_TIMER", "DELETE_TIMER",
              "RESUME_TIMER", "ADD_TIME_TIMER", "UPDATE_TIMER", "RESTART_TIMER",
              "SUBTRACT_TIME_TIMER", "GET_TIME"),
    "weather": ("GET_WEATHER", "GET_SUNSET", "GET_SUNRISE"),
}

# Slots in frequency-rank order; an intent draws from a rotated window of them.
SLOTS = {
    "alarm": ("DATE_TIME", "ALARM_NAME", "PERIOD", "DURATION", "AMOUNT", "ORDINAL"),
    "event": ("LOCATION", "DATE_TIME", "CATEGORY_EVENT", "NAME_EVENT", "ORGANIZER_EVENT",
              "ATTRIBUTE_EVENT", "ATTENDEE_EVENT"),
    "messaging": ("RECIPIENT", "CONTENT_EXACT", "SENDER", "DATE_TIME", "TYPE_CONTENT",
                  "RESOURCE", "GROUP", "TYPE_REACTION"),
    "music": ("MUSIC_TYPE", "MUSIC_ARTIST_NAME", "MUSIC_GENRE", "MUSIC_TRACK_TITLE",
              "MUSIC_PLAYLIST_TITLE", "MUSIC_PROVIDER_NAME", "MUSIC_ALBUM_TITLE",
              "MUSIC_RADIO_ID", "MUSIC_PLAYLIST_MODIFIER", "MUSIC_REWIND_TIME",
              "MUSIC_ALBUM_MODIFIER"),
    "navigation": ("DESTINATION", "SOURCE", "DATE_TIME_DEPARTURE", "DATE_TIME_ARRIVAL",
                   "METHOD_TRAVEL", "LOCATION", "WAYPOINT", "PATH", "ROAD_CONDITION",
                   "OBSTRUCTION_AVOID", "UNIT_DISTANCE"),
    "reminder": ("TODO", "DATE_TIME", "PERSON_REMINDED", "RECURRING_DATE_TIME",
                 "ATTENDEE", "AMOUNT", "ORDINAL", "METHOD_RETRIEVAL_REMINDER"),
    "timer": ("METHOD_TIMER", "DATE_TIME", "TIMER_NAME", "AMOUNT", "MUSIC_TYPE"),
    "weather": ("LOCATION", "DATE_TIME", "WEATHER_ATTRIBUTE", "WEATHER_TEMPERATURE_UNIT"),
}

# Slots that may hold a nested intent, and the intents (with their own slots)
# they hold.
NESTED = {
    "LOCATION": ("GET_LOCATION", ("LOCATION_USER", "SEARCH_RADIUS", "POINT_ON_MAP")),
    "DESTINATION": ("GET_LOCATION", ("POINT_ON_MAP", "CATEGORY_LOCATION", "LOCATION_USER")),
    "SOURCE": ("GET_LOCATION_HOME", ("CONTACT", "TYPE_RELATION")),
    "RECIPIENT": ("GET_CONTACT", ("CONTACT_RELATED", "TYPE_RELATION")),
    "TODO": ("GET_TODO", ("TODO", "DATE_TIME")),
    "PERSON_REMINDED": ("GET_CONTACT", ("CONTACT_RELATED", "TYPE_RELATION")),
    "DATE_TIME": ("GET_RECURRING_DATE_TIME", ("FREQUENCY", "DATE_TIME")),
}
NEST_PROBABILITY = 0.18
WORD_CELLS = 1024  # resolution of the inverse-CDF table for Zipf word draws

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
              "na", "pe", "qi", "ro", "su", "ta", "ve", "wi", "xo", "yu", "za")
VOCABULARY = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES) + tuple(
    a + b + c for a in _SYLLABLES[:8] for b in _SYLLABLES[8:16] for c in _SYLLABLES[16:]
)


def _zipf_cumulative(n: int, exponent: float) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** exponent
        out.append(total)
    return out


class _Draws:
    """All draws go through ``random()`` so the sequence is stable across versions."""

    def __init__(self, seed: int):
        self.unit = random.Random(seed).random

    def ranked(self, cumulative: list[float]) -> int:
        return min(bisect.bisect_right(cumulative, self.unit() * cumulative[-1]),
                   len(cumulative) - 1)


class _Domain:
    """Per-domain ontology: intent weights and each intent's slot window."""

    def __init__(self, name: str):
        self.intents = INTENTS[name]
        self.intent_weights = _zipf_cumulative(len(self.intents), 1.15)
        slots = SLOTS[name]
        self.intent_slots = []
        for i in range(len(self.intents)):
            width = 1 + (i * 3) % len(slots)
            window = tuple(slots[(i + j) % len(slots)] for j in range(width))
            self.intent_slots.append(window)
        # the domain's own vocabulary window keeps domains lexically distinct
        offset = (sum(map(ord, name)) * 37) % len(VOCABULARY)
        words = tuple(VOCABULARY[(offset + j) % len(VOCABULARY)] for j in range(300))
        # Zipf word draws through a 1024-cell inverse-CDF table: one random() each
        cumulative = _zipf_cumulative(len(words), 1.0)
        self.word_table = tuple(
            words[bisect.bisect_left(cumulative, (j + 0.5) / WORD_CELLS * cumulative[-1])]
            for j in range(WORD_CELLS))


def _words(draws: _Draws, domain: _Domain, low: int, high: int) -> list[str]:
    unit, table = draws.unit, domain.word_table
    count = low + int(unit() * (high - low + 1))
    return [table[int(unit() * WORD_CELLS)] for _ in range(count)]


def _slot(draws: _Draws, domain: _Domain, slot: str, depth: int,
          tokens: list[str], parts: list[str]) -> None:
    parts.append("[SL:" + slot)
    nested = NESTED.get(slot)
    if nested is not None and depth < 2 and draws.unit() < NEST_PROBABILITY:
        intent, inner_slots = nested
        _intent(draws, domain, intent, inner_slots, depth + 1, tokens, parts)
    else:
        value = _words(draws, domain, 1, 3)
        tokens.extend(value)
        parts.extend(value)
    parts.append("]")


def _intent(draws: _Draws, domain: _Domain, intent: str, slots: tuple[str, ...],
            depth: int, tokens: list[str], parts: list[str]) -> None:
    """Append one intent node; each slot of the window appears with falling odds."""
    parts.append("[IN:" + intent)
    lead = _words(draws, domain, 1, 3)
    tokens.extend(lead)
    parts.extend(lead)
    for rank, slot in enumerate(slots):
        if draws.unit() < 0.75 / (1 + rank) ** 0.8:
            _slot(draws, domain, slot, depth, tokens, parts)
            filler = _words(draws, domain, 0, 2)
            tokens.extend(filler)
            parts.extend(filler)
    parts.append("]")


def split_counts(scale: float = 1.0) -> dict[str, dict[str, int]]:
    """Rows per domain and split at a scale; every split keeps at least one row."""
    return {
        name: {split: max(1, round(full * scale))
               for split, full in zip(("train", "eval", "test"), counts)}
        for name, *counts in SPLIT_SIZES
    }


def generate_rows(seed: int, scale: float = 1.0):
    """Yield ``(domain, utterance, frame_text, split)`` tuples in file order."""
    draws = _Draws(seed)
    for name, splits in split_counts(scale).items():
        domain = _Domain(name)
        for split, count in splits.items():
            for _ in range(count):
                i = draws.ranked(domain.intent_weights)
                tokens: list[str] = []
                parts: list[str] = []
                _intent(draws, domain, domain.intents[i], domain.intent_slots[i], 0,
                        tokens, parts)
                yield name, " ".join(tokens), " ".join(parts), split


def write_corpus(path: str | Path, seed: int, scale: float = 1.0) -> int:
    """Write a TSV (header with a split column) or JSONL corpus; returns rows written."""
    path = Path(path)
    rows = 0
    if path.suffix == ".jsonl":
        lines = []
        for domain, utterance, frame, split in generate_rows(seed, scale):
            lines.append(json.dumps({"domain": domain, "utterance": utterance,
                                     "semantic_parse": frame, "split": split}))
            rows += 1
    else:
        lines = ["domain\tutterance\tsemantic_parse\tsplit"]
        for row in generate_rows(seed, scale):
            lines.append("\t".join(row))
            rows += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True, help=".tsv or .jsonl path")
    args = parser.parse_args()
    print(write_corpus(args.out, args.seed, args.scale))


if __name__ == "__main__":
    main()
