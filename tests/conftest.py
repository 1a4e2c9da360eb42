import random

import pytest

from dataeff.corpus import SPLITS, CorpusTable
from dataeff.rng import SplitMix64
from reference_frames import FrameNode

_INTENTS = ("IN:GET_WEATHER", "IN:GET_SUNRISE", "IN:GET_SUNSET", "IN:CREATE_ALARM",
            "IN:SEND_MESSAGE", "IN:PLAY_MUSIC")
_SLOTS = ("SL:LOCATION", "SL:DATE_TIME", "SL:WEATHER_ATTRIBUTE", "SL:MUSIC_TYPE")
_TOKENS = ("what", "s", "the", "forecast", "boston", "tomorrow", "jazz", "nine",
           "am", "please", "rain", "sunny")


def random_frame(rng: random.Random, max_depth: int = 4, max_branch: int = 4) -> FrameNode:
    """Root of a random valid frame: intents nest slots, slots nest intents, depth/branch capped."""

    def intent_node(depth: int) -> FrameNode:
        children = []
        for _ in range(rng.randint(0, max_branch)):
            if depth < max_depth and rng.random() < 0.4:
                children.append(slot_node(depth + 1))
            else:
                children.append(FrameNode("token", rng.choice(_TOKENS)))
        return FrameNode("intent", rng.choice(_INTENTS), tuple(children))

    def slot_node(depth: int) -> FrameNode:
        children = []
        for _ in range(rng.randint(0, max_branch)):
            if depth < max_depth and rng.random() < 0.2:
                children.append(intent_node(depth + 1))
            else:
                children.append(FrameNode("token", rng.choice(_TOKENS)))
        return FrameNode("slot", rng.choice(_SLOTS), tuple(children))

    return intent_node(1)


def make_rows(domain, n, split="train", intent="IN:GET_WEATHER", token="forecast"):
    """n simple one-slot (domain, utterance, parse, split) rows for one domain/split."""
    return [(domain, f"{token} {i}", f"[{intent} {token} [SL:LOCATION spot ] ]", split)
            for i in range(n)]


@pytest.fixture
def draws(monkeypatch):
    """The prefix length of each SplitMix64.shuffle_prefix call, that is of each subset draw."""
    made = []
    shuffle_prefix = SplitMix64.shuffle_prefix
    monkeypatch.setattr(SplitMix64, "shuffle_prefix",
                        lambda self, items, m: made.append(m) or shuffle_prefix(self, items, m))
    return made


@pytest.fixture
def weather_table():
    """1000 weather train rows plus a small alarm source domain."""
    rows = make_rows("weather", 1000)
    rows += make_rows("weather", 40, split="eval")
    rows += make_rows("weather", 60, split="test")
    rows += make_rows("alarm", 200, intent="IN:CREATE_ALARM", token="alarm")
    rows += make_rows("alarm", 10, split="eval", intent="IN:CREATE_ALARM", token="alarm")
    rows += make_rows("alarm", 20, split="test", intent="IN:CREATE_ALARM", token="alarm")
    return CorpusTable(rows)


def row_keys(table):
    """Each row's (domain, split), in row order, rebuilt from table.row_ids."""
    keys = [None] * len(table)
    for domain in table.domains():
        for split in SPLITS:
            for pos in table.row_ids(domain, split):
                assert keys[pos] is None, (pos, domain, split)
                keys[pos] = (domain, split)
    assert None not in keys
    return tuple(keys)


def columns(table):
    """Each row's (domain, split), frame and labels, for comparing whole tables."""
    return row_keys(table), table.parse, table.labels


def write_tsv(path, rows, with_split=True):
    """Write (domain, utterance, parse[, split]) tuples as corpus TSV."""
    header = "domain\tutterance\tsemantic_parse" + ("\tsplit" if with_split else "")
    lines = [header]
    for row in rows:
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def simple_corpus_rows(domain, n_train, n_eval, n_test, intent="IN:GET_WEATHER"):
    """Row tuples for write_tsv: distinct utterances, one frame shape."""
    rows = []
    for split, count in (("train", n_train), ("eval", n_eval), ("test", n_test)):
        for i in range(count):
            rows.append(
                (domain, f"{domain} {split} {i}",
                 f"[{intent} word{i} [SL:LOCATION here ] ]", split)
            )
    return rows
