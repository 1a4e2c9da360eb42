"""Bracketed semantic frames: parse, canonicalize, compare, count labels.

A frame is a tree of intent and slot nodes over an utterance, written as
``[IN:GET_WEATHER what s the [SL:LOCATION boston ] forecast ]``. Intent
labels start with ``IN:``, slot labels with ``SL:``; everything else is an
utterance token. Intents may contain tokens and slots; slots may contain
tokens and nested intents. Exact match is plain string equality of the
canonical single-space serialization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import FrameParseError, InputError

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"
_LABEL_BODY = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")


@dataclass(frozen=True)
class FrameNode:
    """One tree node: an ``intent``/``slot`` with a label, or a ``token`` with text."""

    kind: str  # "intent" | "slot" | "token"
    text: str  # ontology label for intent/slot nodes, surface text for tokens
    children: tuple["FrameNode", ...] = ()

    def is_token(self) -> bool:
        return self.kind == "token"


@dataclass(frozen=True)
class Frame:
    """A whole parse tree; the root is always an intent node."""

    root: FrameNode

    def __str__(self) -> str:
        return serialize_frame(self)


def _valid_label(text: str) -> bool:
    body = text[3:]
    return bool(body) and all(ch in _LABEL_BODY for ch in body)


class _Parser:
    """Single-pass recursive descent over the bracketed grammar; fails fast."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None) -> FrameParseError:
        return FrameParseError(message, self.pos if offset is None else offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def read_word(self) -> str:
        """Maximal run of non-whitespace, non-bracket characters."""
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace() or ch in "[]":
                break
            self.pos += 1
        return self.text[start:self.pos]

    def parse_node(self, depth: int) -> FrameNode:
        open_at = self.pos
        assert self.text[self.pos] == "["
        self.pos += 1
        label_at = self.pos
        label = self.read_word()
        if label.startswith(INTENT_PREFIX):
            kind = "intent"
        elif label.startswith(SLOT_PREFIX):
            kind = "slot"
        else:
            if depth == 0 and label:
                raise self.error(f"root label {label!r} is not an intent", label_at)
            raise self.error(
                f"label must start with {INTENT_PREFIX!r} or {SLOT_PREFIX!r}", label_at
            )
        if not _valid_label(label):
            raise self.error(f"empty or malformed label {label!r}", label_at)
        if depth == 0 and kind != "intent":
            raise self.error(f"root label {label!r} is not an intent", label_at)

        children: list[FrameNode] = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                raise self.error("unbalanced brackets: missing ']'", open_at)
            ch = self.text[self.pos]
            if ch == "]":
                self.pos += 1
                return FrameNode(kind, label, tuple(children))
            if ch == "[":
                child = self.parse_node(depth + 1)
                if kind == "intent" and child.kind != "slot":
                    raise self.error("intent nodes may only nest slots", open_at)
                if kind == "slot" and child.kind != "intent":
                    raise self.error("slot nodes may only nest intents", open_at)
                children.append(child)
            else:
                word_at = self.pos
                word = self.read_word()
                if not word:  # defensive: cannot happen given the checks above
                    raise self.error("unexpected character", word_at)
                children.append(FrameNode("token", word))

    def parse(self) -> Frame:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("empty input")
        if self.text[self.pos] != "[":
            raise self.error("frame must start with '['")
        root = self.parse_node(0)
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"trailing garbage after frame: {self.text[self.pos:][:20]!r}")
        return Frame(root)


def parse_frame(text: str) -> Frame:
    """Parse bracketed frame text into a Frame.

    Tokens are whitespace-separated maximal non-bracket runs. Raises
    FrameParseError (with byte offset) on unbalanced brackets, a non-intent
    root, empty labels, or trailing garbage.
    """
    return _Parser(text).parse()


def _serialize_node(node: FrameNode, parts: list[str]) -> None:
    if node.is_token():
        parts.append(node.text)
        return
    parts.append("[" + node.text)
    for child in node.children:
        _serialize_node(child, parts)
    parts.append("]")


def serialize_frame(frame: Frame) -> str:
    """Canonical single-space form; parse_frame(serialize_frame(f)) == f."""
    parts: list[str] = []
    _serialize_node(frame.root, parts)
    return " ".join(parts)


def exact_match(system: list[Frame], reference: list[Frame]) -> float:
    """Percent of positions where the canonical serializations are identical.

    Both lists must be non-empty and the same length.
    """
    if not system or not reference:
        raise InputError("exact_match requires non-empty frame lists")
    if len(system) != len(reference):
        raise InputError(
            f"length mismatch: {len(system)} system vs {len(reference)} reference frames"
        )
    hits = sum(
        serialize_frame(s) == serialize_frame(r) for s, r in zip(system, reference)
    )
    return 100.0 * hits / len(system)


def ontology_labels(frame: Frame) -> Counter:
    """Multiset of every intent and slot label in the tree; tokens excluded."""
    counts: Counter = Counter()
    stack = [frame.root]
    while stack:
        node = stack.pop()
        if not node.is_token():
            counts[node.text] += 1
            stack.extend(node.children)
    return counts


def root_intent(frame: Frame) -> str:
    """Label of the root intent node."""
    return frame.root.text
